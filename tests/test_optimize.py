import math

import numpy as np
import pytest
from conftest import reference_tiles, unit
from hypothesis import given, settings
from hypothesis import strategies as st

from biarcs import optimize
from biarcs.biarc import PairError, _balanced_arcs, _move_lengths
from biarcs.curve import arclength_reparametrize, make_partition, preset_curve
from biarcs.energy import _normal_frame, _scaled_powers, discrete_tp_energy, pair_stats
from biarcs.interpolate import (
    BiarcCurveBuildError,
    build_biarc_curve,
    check_Bn,
    from_junctions,
    junctions_to_text,
)
from biarcs.optimize import (
    REJECTION_REASONS,
    AnnealConfig,
    AnnealTrace,
    _PairTable,
    anneal_discrete,
    trace_to_csv,
)

TWO_PI = 2 * math.pi


def circle_config(n=16):
    circle = preset_curve("circle", [1.0])
    return build_biarc_curve(circle, make_partition(circle.length, n))


def stadium(n, jitter, rng):
    """Junctions and length L of a stadium: two straight strands of length
    2, L / n apart, joined by semicircles. Junction i sits at arclength
    (i + jitter u_i) L / n with u_i uniform in [-1, 1]. A junction moved
    onto one across the gap keeps its biarcs in the length gate."""
    r = 2.0 / (n - math.pi)  # 2 r = L / n with L = 4 + 2 pi r
    L = 4.0 + 2.0 * math.pi * r
    # arclength from the lower end of the right cap
    cells = np.arange(n) + (jitter * rng.uniform(-1.0, 1.0, n) if jitter else 0.0)
    u = np.mod(cells * L / n + math.pi * r / 2, L)
    top, left, bottom = math.pi * r, math.pi * r + 2.0, 2.0 * math.pi * r + 2.0
    cap = (u < top) | ((u >= left) & (u < bottom))
    theta = np.where(u < top, u / r - math.pi / 2, (u - left) / r + math.pi / 2)
    centre = np.where(u < top, 1.0, -1.0)
    straight_x = np.where(u < left, 1.0 - (u - top), u - bottom - 1.0)
    x = np.where(cap, centre + r * np.cos(theta), straight_x)
    y = np.where(cap, r * np.sin(theta), np.where(u < left, r, -r))
    tx = np.where(cap, -np.sin(theta), np.where(u < left, -1.0, 1.0))
    ty = np.where(cap, np.cos(theta), 0.0)
    zeros = np.zeros(n)
    return np.stack([x, y, zeros], axis=-1), np.stack([tx, ty, zeros], axis=-1), L


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
        assert check_Bn(best, TWO_PI)

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
        b1, t1 = anneal_discrete(init, cfg)
        b2, t2 = anneal_discrete(init, cfg)
        assert np.array_equal(t1.records, t2.records)
        assert np.array_equal(b1.junction_points, b2.junction_points)
        assert np.array_equal(b1.junction_tangents, b2.junction_tangents)
        cfg_other = AnnealConfig(q=3.0, n=12, L=TWO_PI, steps=1500, seed=43)
        _, t3 = anneal_discrete(init, cfg_other)
        assert not np.array_equal(t1.records, t3.records)

    def test_rejections_add_up(self, monkeypatch):
        monkeypatch.setattr(optimize, "SIGMA_POSITION", 0.5)
        init = perturbed_circle(12, 0.04, seed=9)
        cfg = AnnealConfig(q=3.0, n=12, L=TWO_PI, steps=1500, seed=42)
        _, trace = anneal_discrete(init, cfg)
        assert tuple(trace.rejections) == REJECTION_REASONS
        assert len(trace.accepted) + sum(trace.rejections.values()) == cfg.steps
        assert trace.rejections["metropolis"] > 0 and trace.rejections["gate"] > 0

    def test_temperature_underflow_accepts_only_downhill(self, monkeypatch):
        # geometric cooling at rate 1/2 reaches exactly 0 after ~1080 steps;
        # there the Metropolis test must not divide by the temperature
        monkeypatch.setattr(optimize, "COOLING_RATE", 0.5)
        init = perturbed_circle(12, 0.04, seed=9)
        cfg = AnnealConfig(q=4.0, n=12, L=TWO_PI, steps=1500, seed=4)
        _, trace = anneal_discrete(init, cfg)
        cold = trace.records[trace.records[:, 2] == 0.0]
        assert len(cold) > 300
        # at temperature 0 the energy never rises, so no uphill move passed
        energies = np.concatenate([trace.records[trace.records[:, 2] > 0.0][-1:, 1], cold[:, 1]])
        assert np.all(np.diff(energies) <= 0.0)
        assert trace.rejections["metropolis"] > 0


class TestDilation:
    """E(d beta) = d^(2 - q) E(beta), and every scale of the run is a unit of
    L / n or of the initial energy, so a run from a chain dilated by a power
    of two is the undilated run, scaled, bit for bit. The pair table holds
    (x / ceiling)^q and w = lam / 2^k, which such a dilation leaves
    unchanged, and for an integral q the energies of the trace are scaled
    back by a power of two alone. At d = 2^-480 the energies are 2^960 times
    those of the undilated run, where a raw x^4 of the dilated chain would
    overflow."""

    @pytest.mark.parametrize(
        "d",
        [2.0**-480, 2.0**-40, 2.0**-10, 2.0**10],
        ids=["2^-480", "2^-40", "2^-10", "2^10"],
    )
    def test_run_commutes_with_dilation(self, d):
        q = 4.0
        curve = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2, 0.5]))
        beta = build_biarc_curve(curve, make_partition(curve.length, 24))

        def run(scale, seed):
            chain = from_junctions(scale * beta.junction_points, beta.junction_tangents)
            cfg = AnnealConfig(q=q, n=24, L=scale * curve.length, steps=1000, seed=seed)
            return anneal_discrete(chain, cfg)

        for seed in (0, 5):
            best, trace = run(1.0, seed)
            best_d, trace_d = run(d, seed)
            assert np.array_equal(trace_d.records[:, 3], trace.records[:, 3])
            assert 0 < trace.records[:, 3].sum() < len(trace.records)
            assert np.array_equal(trace_d.records[:, 1:3], d ** (2.0 - q) * trace.records[:, 1:3])
            assert trace_d.best_energy == d ** (2.0 - q) * trace.best_energy
            assert np.array_equal(best_d.junction_points, d * best.junction_points)
            assert np.array_equal(best_d.junction_tangents, best.junction_tangents)


class TestGuards:
    def test_min_distance_precondition(self, monkeypatch):
        # neighbouring junctions of the circle lie about L / n apart
        monkeypatch.setattr(optimize, "MIN_DISTANCE", 10.0)
        beta = circle_config(16)
        cfg = AnnealConfig(q=4.0, n=16, L=TWO_PI, steps=100)
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
        # junction 3 on the upper strand faces junction 9 on the lower one,
        # and a move of 3 onto 9 keeps both rebuilt biarcs constructible
        points, tangents, L = stadium(12, 0.0, None)
        beta = from_junctions(points, tangents)
        cfg = AnnealConfig(q=4.0, n=12, L=L)
        table = _PairTable(beta, cfg)
        assert table.unscale(table.energy) == pytest.approx(
            discrete_tp_energy(beta, 4.0, gated=False, L=L), rel=4 * 4.0 * 2.0**-52
        )
        before = (table.Y.copy(), table.w.copy(), table.energy)
        # closer than MIN_DISTANCE L / n, and coincident (where the pair
        # kernel itself raises): rejected, not raised, and nothing written
        cases = ((1e-6, "min_distance"), (0.0, "min_distance"), (1e-2, "thickness_floor"))
        for gap, reason in cases:
            point = beta.junction_points[9] + np.array([0.0, gap, 0.0])
            assert table.propose(3, point, beta.junction_tangents[3]) == reason
            assert np.array_equal(table.Y, before[0]) and np.all(np.isfinite(table.Y))
            assert np.array_equal(table.w, before[1]) and table.energy == before[2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(q=1.0, n=8, L=TWO_PI)

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_non_finite_power_rejected(self, q):
        with pytest.raises(ValueError, match="energy power q must be finite"):
            AnnealConfig(q=q, n=8, L=TWO_PI)

    # a NaN length made every move's scale NaN, so every move was rejected
    # as not constructible and the run returned its start unchanged
    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
    def test_length_must_be_finite_and_positive(self, L):
        with pytest.raises(ValueError, match=f"chain length L must be finite and positive, got {L}"):
            AnnealConfig(q=3.0, n=12, L=L, steps=200, seed=1)

    # seed=None would draw OS entropy: a run that cannot be repeated
    @pytest.mark.parametrize("seed", [-1, None, 2.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            AnnealConfig(q=3.0, n=12, L=TWO_PI, steps=200, seed=seed)

    def test_seed_is_read_through_index(self):
        cfg = AnnealConfig(q=3.0, n=12, L=TWO_PI, steps=200, seed=np.uint8(7))
        assert type(cfg.seed) is int and cfg.seed == 7


class TestPairTable:
    """The cached pair table against a fresh pair-kernel pass. The two scale
    the quotients differently, by the table's ceiling and by the largest
    quotient, and a ratio's rounding error grows q times in its power, so
    the energies agree to a relative 4 q 2^-52."""

    @staticmethod
    def fresh(points, tangents, cfg, ceiling):
        """The guard that rejects a configuration, or None, and its energy,
        from a full chain rebuild and one `pair_stats` pass."""
        try:
            lam = from_junctions(points, tangents).segment_lengths
        except BiarcCurveBuildError:
            return "not_constructible", None
        n = len(points)
        if lam.min() < cfg.L / (2 * n) or lam.max() > 2 * cfg.L / n:
            return "gate", None
        try:
            stats = pair_stats(points, tangents, lam, cfg.q)
        except ValueError:  # coincident junctions
            return "min_distance", None
        if stats.min_distance < optimize.MIN_DISTANCE * cfg.L / n:
            return "min_distance", None
        if stats.max_quotient > ceiling:
            return "thickness_floor", None
        return None, stats.energy

    def test_thickness_floor_from_the_column(self):
        # pushing a circle junction outward moves its tangent line away from
        # the neighbours: column j grows past the ceiling while row j shrinks
        beta = circle_config(16)
        cfg = AnnealConfig(q=4.0, n=16, L=TWO_PI)
        table = _PairTable(beta, cfg)
        ceiling = 2.0 * pair_stats(
            beta.junction_points, beta.junction_tangents, beta.segment_lengths, 4.0
        ).max_quotient
        reasons = set()
        for push in np.linspace(1.05, 1.15, 201):
            points = beta.junction_points.copy()
            points[3] *= push
            reason, expected = self.fresh(points, beta.junction_tangents, cfg, ceiling)
            assert table.propose(3, points[3], beta.junction_tangents[3]) == reason
            if reason is None:
                assert table.unscale(table.candidate) == pytest.approx(
                    expected, rel=4 * 4.0 * 2.0**-52
                )
                table.undo()
            reasons.add(reason)
        assert reasons == {None, "thickness_floor"}

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(8, 128),
        q=st.sampled_from([3.0, 4.0, 64.0]),
        seed=st.integers(0, 2**32 - 1),
        moves=st.lists(
            st.tuples(
                st.integers(0, 2**16),
                # a kick of this many L / n, or a gap of this many L / n to
                # the closest junction that is not a neighbour
                st.sampled_from(
                    [("kick", 1e-4), ("kick", 0.05), ("kick", 0.5)]
                    + [("gap", g) for g in (0.0, 1e-9, 1e-6, 1e-3, 0.05)]
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_moves_match_a_fresh_pass(self, n, q, seed, moves):
        rng = np.random.default_rng(seed)
        points, tangents, L = stadium(n, 0.1, rng)
        beta = from_junctions(points, tangents)
        cfg = AnnealConfig(q=q, n=n, L=L)
        table = _PairTable(beta, cfg)
        ceiling = 2.0 * pair_stats(points, tangents, beta.segment_lengths, q).max_quotient

        def agrees(cached, fresh):
            return table.unscale(cached) == pytest.approx(fresh, rel=4 * q * 2.0**-52)

        assert agrees(table.energy, self.fresh(table.points, table.tangents, cfg, ceiling)[1])
        for pick, (kind, size), keep in moves:
            j = pick % n
            tangent = unit(table.tangents[j] + rng.normal(scale=0.05, size=3))
            if kind == "kick":
                point = table.points[j] + rng.normal(scale=size * L / n, size=3)
            else:
                others = [k for k in range(n) if min(abs(k - j), n - abs(k - j)) > 1]
                k = min(others, key=lambda k: np.linalg.norm(table.points[k] - table.points[j]))
                point = table.points[k] + size * L / n * unit(rng.normal(size=3))
            points, tangents = table.points.copy(), table.tangents.copy()
            points[j], tangents[j] = point, tangent
            energy = table.energy
            reason, expected = self.fresh(points, tangents, cfg, ceiling)
            assert table.propose(j, point, tangent) == reason
            assert np.all(np.isfinite(table.Y))
            if reason is None:
                assert agrees(table.candidate, expected)
                if keep:
                    table.commit()
                else:
                    table.undo()
            assert table.energy == (table.candidate if reason is None and keep else energy)
        # after any sequence of moves the table is the one a fresh fill
        # gives, every quotient with the bits of the row-tile reference
        tiles = reference_tiles(table.points, table.tangents)
        Y = np.concatenate([_scaled_powers(x, table.ceiling, q) for _, _, x in tiles])
        assert np.array_equal(table.Y, Y)
        lam = from_junctions(table.points, table.tangents).segment_lengths
        assert np.array_equal(table.w, np.ldexp(lam, -table.k))
        assert np.array_equal(table._frame[:, :, 0], _normal_frame(table.tangents.T))


class TestMoveRebuild:
    """A run on the scalar rebuild of a move's two biarcs against the same
    run on the batched `_balanced_arcs`."""

    @pytest.mark.parametrize("sigma_position, sigma_tangent", [(0.05, 0.05), (0.3, 0.5)])
    def test_run_matches_the_batched_rebuild(self, monkeypatch, sigma_position, sigma_tangent):
        monkeypatch.setattr(optimize, "SIGMA_POSITION", sigma_position)
        monkeypatch.setattr(optimize, "SIGMA_TANGENT", sigma_tangent)
        curve = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2, 0.5]))
        beta = build_biarc_curve(curve, make_partition(curve.length, 24))
        cfg = AnnealConfig(q=4.0, n=24, L=curve.length, steps=400, seed=6)

        def run(rebuild):
            """Trace CSV, best junctions, raw records and the bits of every
            rebuilt length (None where the rebuild raised)."""
            lengths = []

            def recorded(points, tangents):
                try:
                    lam = rebuild(points, tangents)
                except PairError:
                    lengths.append(None)
                    raise
                lengths.append([float(x).hex() for x in lam])
                return lam

            monkeypatch.setattr(optimize, "_move_lengths", recorded)
            best, trace = anneal_discrete(beta, cfg)
            return trace_to_csv(trace), junctions_to_text(best), trace.records.tobytes(), lengths

        def batched(points, tangents):
            points, tangents = np.array(points), np.array(tangents)
            return _balanced_arcs(points[:2], tangents[:2], points[1:], tangents[1:])[-1]

        shipped = run(_move_lengths)
        assert shipped == run(batched)
        assert len(shipped[3]) == cfg.steps
        if sigma_position > 0.05:
            assert None in shipped[3]


class TestDraws:
    """`optimize._anneal_draws` is numpy's Generator stream, bit for bit."""

    # one to four 32-bit words of seed, and past SeedSequence's pool of four
    SEEDS = [*range(40), 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64, 2**100 + 3, 2**160 + 1]

    def test_the_anneals_calls_are_numpys(self):
        # as a step draws: a junction, the point's and the tangent's kicks,
        # and now and then a Metropolis uniform. Each n takes one 32-bit
        # word, so the spare high half serves every other call, across the
        # normals between; n = 2^31 + 11 redraws about half its words
        scales = (0.3,) * 3 + (2.5e-7,) * 3
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            integer, kicks, uniform = optimize._anneal_draws(seed, scales)
            for step in range(100):
                n = (4, 7, 64, 2**31 + 11, 2**32 - 1)[step % 5]
                assert integer(n) == rng.integers(n)
                expected = [rng.normal(scale=s, size=3) for s in (0.3, 2.5e-7)]
                assert np.array(kicks()).tobytes() == np.concatenate(expected).tobytes()
                if step % 3 == 0:
                    assert uniform() == rng.random()

    @pytest.mark.parametrize("seed", [0, 39, 2**160 + 1])
    def test_normals_take_every_branch(self, monkeypatch, seed):
        # the tail past R (layer 0) takes log1p, the wedge of a layer exp
        calls = dict.fromkeys(["log1p", "exp"], 0)
        for name in calls:

            def counted(x, name=name, real=getattr(math, name)):
                calls[name] += 1
                return real(x)

            monkeypatch.setattr(math, name, counted)
        _, kicks, _ = optimize._anneal_draws(seed, (1.0,) * 200_000)
        z = np.array(kicks())
        monkeypatch.undo()
        assert np.array_equal(z, np.random.default_rng(seed).standard_normal(200_000))
        assert calls["log1p"] > 0 and calls["exp"] > 0

    @pytest.mark.parametrize(
        "seed, first",
        [
            (0, (54, ["-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4"],
                 "0x1.a064f4f059bcap-1")),
            (2**64 + 5, (56, ["-0x1.b5ed9d58af755p-4", "0x1.e62ae9beb47b8p-1",
                              "0x1.885dddec8f0e8p-4"], "0x1.ee48923c83ec1p-1")),
        ],
    )
    def test_first_draws_are_pinned(self, seed, first):
        # the stream stays if a later numpy changes its own (NEP 19)
        integer, kicks, uniform = optimize._anneal_draws(seed, (1.0,) * 3)
        assert (integer(64), [z.hex() for z in kicks()], uniform().hex()) == first


class TestTraceCsv:
    def test_format(self):
        trace = AnnealTrace(
            records=np.array([[0, 10.0, 1.0, 1.0], [1, 10.0, 0.995, 0.0]]),
            best_energy=10.0,
        )
        lines = trace_to_csv(trace).splitlines()
        assert lines[0] == "step,energy,temperature,accepted"
        assert lines[1] == "0,10,1,1"
        assert lines[2] == "1,10,0.995,0"
