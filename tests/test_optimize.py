import math

import numpy as np
import pytest

from biarcs.curve import make_partition, preset_curve
from biarcs.energy import discrete_tp_energy
from biarcs.interpolate import build_biarc_curve, check_Bn, from_junctions
from biarcs.optimize import (
    AnnealConfig,
    AnnealTrace,
    _candidate_energy,
    anneal_discrete,
    trace_to_csv,
)

TWO_PI = 2 * math.pi


def circle_config(n=16):
    circle = preset_curve("circle", [1.0])
    return build_biarc_curve(circle, make_partition(circle.length, n))


def perturbed_circle(n, noise, seed):
    rng = np.random.default_rng(seed)
    theta = np.arange(n) / n * TWO_PI
    radii = 1.0 + noise * rng.normal(size=n)
    pts = np.stack([radii * np.cos(theta), radii * np.sin(theta), np.zeros(n)], axis=-1)
    tans = np.stack([-np.sin(theta), np.cos(theta), np.zeros(n)], axis=-1)
    return from_junctions(pts, tans)


class TestAnneal:
    def test_circle_is_a_fixed_point(self):
        # at n = 32 single-junction moves cannot leave the circle without
        # first raising the energy, so the run stays put
        beta = circle_config(32)
        cfg = AnnealConfig(q=4.0, n=32, L=TWO_PI, steps=2000, seed=3)
        best, _ = anneal_discrete(beta, cfg)
        e0 = discrete_tp_energy(beta, 4.0, gated=True, L=TWO_PI)
        e1 = discrete_tp_energy(best, 4.0, gated=True, L=TWO_PI)
        assert e1 <= e0
        assert abs(e1 - e0) / e0 < 1e-3

    def test_perturbed_circle_improves(self):
        init = perturbed_circle(16, 0.05, seed=5)
        cfg = AnnealConfig(q=4.0, n=16, L=TWO_PI, steps=4000, seed=7)
        best, trace = anneal_discrete(init, cfg)
        e_init = discrete_tp_energy(init, 4.0, gated=True, L=TWO_PI)
        e_best = discrete_tp_energy(best, 4.0, gated=True, L=TWO_PI)
        assert e_best <= e_init
        assert trace.best_energy == pytest.approx(e_best, rel=1e-9)
        # the returned configuration still satisfies the gate
        assert check_Bn(best, TWO_PI, 16)

    def test_best_below_accepted_and_monotone(self):
        init = perturbed_circle(16, 0.05, seed=2)
        cfg = AnnealConfig(q=4.0, n=16, L=TWO_PI, steps=3000, seed=1)
        _, trace = anneal_discrete(init, cfg)
        accepted = trace.accepted
        assert len(accepted) > 0
        assert trace.best_energy <= accepted[:, 1].min() + 1e-12
        running = np.minimum.accumulate(accepted[:, 1])
        assert running[-1] == pytest.approx(trace.best_energy, rel=1e-12)
        assert np.all(np.diff(running) <= 1e-12)

    def test_reproducible(self):
        init = perturbed_circle(12, 0.04, seed=9)
        cfg = AnnealConfig(q=3.0, n=12, L=TWO_PI, steps=1500, seed=42)
        _, t1 = anneal_discrete(init, cfg)
        _, t2 = anneal_discrete(init, cfg)
        assert np.array_equal(t1.records, t2.records)
        assert np.array_equal(t1.best_points, t2.best_points)
        cfg_other = AnnealConfig(q=3.0, n=12, L=TWO_PI, steps=1500, seed=43)
        _, t3 = anneal_discrete(init, cfg_other)
        assert not np.array_equal(t1.records, t3.records)


class TestGuards:
    def test_min_distance_precondition(self):
        beta = circle_config(16)
        cfg = AnnealConfig(q=4.0, n=16, L=TWO_PI, steps=100, min_pair_distance=10.0)
        with pytest.raises(ValueError):
            anneal_discrete(beta, cfg)

    def test_segment_count_mismatch(self):
        beta = circle_config(16)
        cfg = AnnealConfig(q=4.0, n=8, L=TWO_PI, steps=100)
        with pytest.raises(ValueError):
            anneal_discrete(beta, cfg)

    def test_gate_precondition(self):
        beta = circle_config(16)
        small = from_junctions(0.2 * beta.junction_points, beta.junction_tangents)
        cfg = AnnealConfig(q=4.0, n=16, L=TWO_PI, steps=100)
        with pytest.raises(ValueError):
            anneal_discrete(small, cfg)

    def test_close_junctions_reject_the_move(self):
        beta = circle_config(16)
        cfg = AnnealConfig(q=4.0, n=16, L=TWO_PI, min_pair_distance=1e-3)
        rest = (beta.junction_tangents, beta.segment_lengths, cfg, math.inf)
        e = _candidate_energy(beta.junction_points, *rest)
        assert e == pytest.approx(discrete_tp_energy(beta, 4.0, gated=False, L=TWO_PI))
        # closer than min_pair_distance, and coincident (where the pair
        # kernel itself raises): rejected, not raised
        for gap in (1e-6, 0.0):
            points = beta.junction_points.copy()
            points[5] = points[2] + gap
            assert _candidate_energy(points, *rest) is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(q=4.0, n=8, L=TWO_PI, cooling_rate=1.5)
        with pytest.raises(ValueError):
            AnnealConfig(q=4.0, n=8, L=TWO_PI, sigma_position=-1.0)
        with pytest.raises(ValueError):
            AnnealConfig(q=1.0, n=8, L=TWO_PI)


class TestTraceCsv:
    def test_format(self):
        trace = AnnealTrace(
            records=np.array([[0, 10.0, 1.0, 1.0], [1, 10.0, 0.995, 0.0]]),
            best_energy=10.0,
            best_points=np.zeros((3, 3)),
            best_tangents=np.zeros((3, 3)),
        )
        lines = trace_to_csv(trace).splitlines()
        assert lines[0] == "step,energy,temperature,accepted"
        assert lines[1] == "0,10,1,1"
        assert lines[2] == "1,10,0.995,0"
