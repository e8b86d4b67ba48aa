import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import jittered_circle_config, random_rotation, reference_tiles
from hypothesis import given, settings
from hypothesis import strategies as st

from biarcs.curve import (
    CurveSpec,
    analytic_curve,
    arclength_reparametrize,
    curvature_values,
    make_partition,
    mollify,
    periodic_distance,
    preset_curve,
)
from biarcs import curve, energy
from biarcs.energy import (
    CoincidentJunctionsError,
    continuous_tp_energy,
    discrete_tp_energy,
    holder_bound_check,
    pair_stats,
    ropelength_proxy,
    thickness_and_ropelength,
)
from biarcs.interpolate import build_biarc_curve, from_junctions

TWO_PI = 2 * math.pi
FOUR_PI2 = 4 * math.pi**2


def dense_pair_quotients(points, tangents):
    """Dense reference for the pair kernel: x[i, j] = 2 dist(l(q_j), q_i) /
    |q_i - q_j|^2 from (n, n, 3) arrays, zero on the diagonal, with the
    squared distances and the off-diagonal mask."""
    diff = points[:, None, :] - points[None, :, :]  # q_i - q_j
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    off = ~np.eye(len(points), dtype=bool)
    along = np.einsum("ijk,jk->ij", diff, tangents)
    perp = diff - along[:, :, None] * tangents[None, :, :]
    h = np.linalg.norm(perp, axis=-1)
    x = np.zeros_like(dist2)
    x[off] = 2.0 * h[off] / dist2[off]
    return x, dist2, off


def random_configuration(rng, n):
    points = rng.normal(size=(n, 3))
    tangents = rng.normal(size=(n, 3))
    tangents /= np.linalg.norm(tangents, axis=-1, keepdims=True)
    return points, tangents, rng.uniform(0.5, 1.5, size=n)


@pytest.fixture(scope="module")
def knot():
    return arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2.0, 0.5]))


@pytest.fixture(scope="module")
def seed_curves(knot):
    """The curves of the seed scan tests: on the circle every inverse radius
    is 1 up to rounding, so ties decide the order."""
    return {
        "circle": preset_curve("circle", [1.0]),
        "ellipse": arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0])),
        "knot23": knot,
        "knot35": arclength_reparametrize(preset_curve("torus_knot", [3, 5, 2.0, 0.5])),
        "mollified": mollify(knot, 1 / 8),
        "chain": build_biarc_curve(knot, make_partition(knot.length, 64, "jitter:0.1", 3)).spec,
    }


def doubly_traversed_circle():
    def position(u):
        u = np.asarray(u, dtype=float)
        return np.stack([np.cos(2 * u), np.sin(2 * u), np.zeros_like(u)], axis=-1)

    def derivative(u):
        u = np.asarray(u, dtype=float)
        return np.stack([-2 * np.sin(2 * u), 2 * np.cos(2 * u), np.zeros_like(u)], axis=-1)

    return arclength_reparametrize(analytic_curve(position, derivative))


def grid_nodes(spec, grid):
    s = (np.arange(grid) + 0.5) * (spec.length / grid)
    return s, spec.position(s), spec.derivative(s)


def moved(spec, rot, shift, scale, reverse):
    """The arclength-parametrized curve s -> scale rot gamma(s / scale) +
    shift, traversed backwards when ``reverse``."""
    L = spec.length
    sign = -1.0 if reverse else 1.0

    def param(s):
        s = np.asarray(s, dtype=float) / scale
        return L - s if reverse else s

    return replace(
        spec,
        position=lambda s: scale * spec.position(param(s)) @ rot.T + shift,
        derivative=lambda s: sign * spec.derivative(param(s)) @ rot.T,
        second_derivative=lambda s: spec.second_derivative(param(s)) @ rot.T / scale,
        arclength_table=scale * spec.arclength_table,
    )


def float_band_seeds(pos, tan, s, L):
    """Reference for the thickness seed scan that masks the near-diagonal
    band by the float periodic distance |s_i - s_j| >= 1e-3 L of the grid
    nodes: the top 32 cells of each tile, merged largest first (ties by
    descending cell), then the eight best that are not grid neighbours of a
    better one."""
    grid, k = len(s), 32
    values, cells = [], []
    for lo, _, x in reference_tiles(pos, tan):
        par = periodic_distance(s[lo : lo + len(x), None], s[None, :], L)
        inv = np.where(par >= 1e-3 * L, x, 0.0).reshape(-1)
        top = np.argpartition(inv, -k)[-k:]
        r, c = np.divmod(top, grid)
        values.append(inv[top])
        cells.append(c * grid + lo + r)
    values, cells = np.concatenate(values), np.concatenate(cells)
    seeds = []
    for f in cells[np.lexsort((cells, values))[::-1][:k]]:
        i, j = divmod(int(f), grid)
        if all(max(abs(i - a), abs(j - b)) > 1 for a, b in seeds):
            seeds.append([i, j])
    return seeds[:8]


def walker_threads(monkeypatch):
    """The set of threads that walk pair tiles in `energy.pair_stats`,
    filled by a spy on `energy._pair_tiles`."""
    threads = set()
    pair_tiles = energy._pair_tiles

    def spy(*args):
        threads.add(threading.current_thread())
        yield from pair_tiles(*args)

    monkeypatch.setattr(energy, "_pair_tiles", spy)
    return threads


def circle_beta(n, radius=1.0):
    circle = preset_curve("circle", [radius])
    return circle, build_biarc_curve(circle, make_partition(circle.length, n))


class TestDiscrete:
    def test_circle_closed_form(self):
        # every junction quotient is 1 on a circle, so the double sum
        # collapses to (2 pi / n)^2 n (n-1) = 4 pi^2 (n-1)/n
        for n in (4, 64):
            _, beta = circle_beta(n)
            for q in (2.0, 3.0, 12.0):
                got = discrete_tp_energy(beta, q, gated=True, L=TWO_PI)
                assert got == pytest.approx(FOUR_PI2 * (n - 1) / n, rel=1e-12)

    def test_gate_gives_infinity(self):
        _, beta = circle_beta(8)
        big = from_junctions(4.0 * beta.junction_points, beta.junction_tangents)
        assert discrete_tp_energy(big, 3.0, gated=True, L=TWO_PI) == math.inf
        assert math.isfinite(discrete_tp_energy(big, 3.0, gated=False, L=TWO_PI))

    def test_scaling_law(self):
        rng = np.random.default_rng(1)
        beta = jittered_circle_config(rng, 16)
        for d in (0.5, 2.0, 7.0):
            scaled = from_junctions(d * beta.junction_points, beta.junction_tangents)
            for q in (2.0, 3.0, 6.0):
                e0 = discrete_tp_energy(beta, q, gated=False, L=TWO_PI)
                ed = discrete_tp_energy(scaled, q, gated=False, L=TWO_PI)
                assert ed == pytest.approx(d ** (2 - q) * e0, rel=1e-9)

    @pytest.mark.parametrize("radius", [1e-150, 1e150])
    def test_scaling_law_at_extreme_scales(self, radius):
        # E(R beta) = R^(2 - q) E(beta) is representable though the plain
        # sum of x^3 lam lam overflows or underflows
        _, beta = circle_beta(16)
        _, dilated = circle_beta(16, radius)
        e1 = discrete_tp_energy(beta, 3.0, gated=False, L=TWO_PI)
        assert discrete_tp_energy(dilated, 3.0, gated=False, L=TWO_PI) == pytest.approx(
            e1 / radius, rel=1e-12, abs=0.0
        )

    def test_high_power_matches_closed_form(self):
        _, beta = circle_beta(16)
        direct = discrete_tp_energy(beta, 12.0, gated=False, L=TWO_PI)
        # every quotient is 1, so the closed form holds at any power
        logged = discrete_tp_energy(beta, 60.0, gated=False, L=TWO_PI)
        assert logged == pytest.approx(FOUR_PI2 * 15 / 16, rel=1e-10)
        assert direct == pytest.approx(FOUR_PI2 * 15 / 16, rel=1e-10)

    def test_coincident_junctions_rejected(self):
        _, beta = circle_beta(8)
        pts = beta.junction_points.copy()
        pts[3] = pts[0]
        with pytest.raises(ValueError):
            from_junctions(pts, beta.junction_tangents)

    def test_q_below_two_rejected(self):
        _, beta = circle_beta(8)
        with pytest.raises(ValueError):
            discrete_tp_energy(beta, 1.5, gated=False, L=TWO_PI)


class TestPairKernel:
    @pytest.mark.parametrize(
        "n, tile",
        [(3, None), (64, None), (23, 50), (300, None)],
        ids=["n3", "one-tile", "tiles-of-2-rows", "partial-last-tile"],
    )
    def test_matches_dense_reference(self, n, tile, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(curve, "PAIR_TILE", tile)
        rows = curve.PAIR_TILE // n
        if n == 64:
            assert rows >= n
        elif n > 3:
            assert n % rows != 0
        rng = np.random.default_rng(n)
        points, tangents, lam = random_configuration(rng, n)
        x, dist2, off = dense_pair_quotients(points, tangents)
        w = np.outer(lam, lam)

        plain = pair_stats(points, tangents, lam, 3.0)
        assert plain.energy == pytest.approx(np.sum(x[off] ** 3 * w[off]), rel=1e-12)
        assert plain.max_quotient == pytest.approx(x[off].max(), rel=1e-13)
        assert plain.min_distance == pytest.approx(np.sqrt(dist2[off].min()), rel=1e-13)

        # a high power: q = n, or 60 for the smaller n
        q = float(n) if n > 50 else 60.0
        terms = q * np.log(x[off]) + np.log(w[off])
        top = terms.max()
        expected = top + np.log(np.sum(np.exp(terms - top)))
        logged = pair_stats(points, tangents, lam, q)
        assert logged.log_energy == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert logged.max_quotient == plain.max_quotient
        assert logged.min_distance == plain.min_distance

        # a diagonal d is each point's own quotient x_ii, summed alike as
        # d_i^q lam_i^2, and its largest value counts in the largest quotient
        d = rng.uniform(0.1, 1.5, size=n) * x[off].max()
        diag = pair_stats(points, tangents, lam, 3.0, d)
        assert diag.energy == pytest.approx(
            np.sum(x[off] ** 3 * w[off]) + np.sum(d**3 * lam**2), rel=1e-12
        )
        assert diag.max_quotient == pytest.approx(max(x[off].max(), d.max()), rel=1e-13)
        assert diag.min_distance == plain.min_distance
        terms = np.concatenate([terms, q * np.log(d) + 2.0 * np.log(lam)])
        top = terms.max()
        expected = top + np.log(np.sum(np.exp(terms - top)))
        logged_diag = pair_stats(points, tangents, lam, q, d)
        assert logged_diag.log_energy == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # a zero diagonal is no diagonal, bit for bit
        assert pair_stats(points, tangents, lam, 3.0, np.zeros(n)) == plain
        assert pair_stats(points, tangents, lam, q, np.zeros(n)) == logged

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_non_finite_power_rejected(self, q):
        rng = np.random.default_rng(4)
        points, tangents, lam = random_configuration(rng, 8)
        with pytest.raises(ValueError, match="power q must be finite"):
            pair_stats(points, tangents, lam, q)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["points", "tangents", "lengths"])
    def test_non_finite_configuration_rejected(self, which, bad):
        # one NaN used to make every tile's largest quotient NaN, and
        # pair_stats returned energy 0 and largest quotient 0
        rng = np.random.default_rng(4)
        config = list(random_configuration(rng, 8))
        config[which][3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            pair_stats(*config, 3.0)

    @pytest.mark.parametrize(
        "shapes",
        [((8, 2), (8, 3), (8,)), ((8, 3), (7, 3), (8,)), ((8, 3), (8, 3), (8, 1)), ((3,), (3,), ())],
        ids=["planar-points", "short-tangents", "column-lengths", "one-vector"],
    )
    def test_misshapen_configuration_rejected(self, shapes):
        rng = np.random.default_rng(4)
        config = random_configuration(rng, 8)
        points, tangents, lam = (np.resize(a, shape) for a, shape in zip(config, shapes))
        with pytest.raises(ValueError, match="must have shape"):
            pair_stats(points, tangents, lam, 3.0)

    @pytest.mark.parametrize("factor", [2.0, 0.0, 1.0 + 2e-9, 1.0 - 2e-9])
    def test_non_unit_tangents_rejected(self, factor):
        # doubled tangents once gave energy 1705.01 for 100.38 here, zero
        # ones 189.69; the normal frames assume unit tangents
        rng = np.random.default_rng(20)
        points, tangents, lam = random_configuration(rng, 20)
        with pytest.raises(ValueError, match="unit vectors"):
            pair_stats(points, factor * tangents, lam, 3.0)
        # within biarc.UNIT_TOL the tangents pass
        pair_stats(points, (1.0 + 5e-10) * tangents, lam, 3.0)

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_non_positive_lengths_rejected(self, length):
        rng = np.random.default_rng(4)
        points, tangents, lam = random_configuration(rng, 8)
        lam[5] = length
        with pytest.raises(ValueError, match="lengths must be positive"):
            pair_stats(points, tangents, lam, 3.0)

    @pytest.mark.parametrize(
        "diagonal, match",
        [
            (np.full(8, np.nan), "must be finite"),
            (np.full(8, np.inf), "must be finite"),
            (np.r_[np.ones(7), -1e-3], "non-negative"),
            (np.ones(9), "must have shape"),
            (np.ones(7), "must have shape"),
            (np.ones((8, 1)), "must have shape"),
        ],
        ids=["nan", "inf", "negative", "long", "short", "column"],
    )
    def test_bad_diagonal_rejected(self, diagonal, match):
        # a NaN diagonal once gave energy 0 and largest quotient 0, an inf
        # one energy NaN; a negative entry was dropped and a long diagonal
        # cut off without a word
        rng = np.random.default_rng(4)
        points, tangents, lam = random_configuration(rng, 8)
        with pytest.raises(ValueError, match=match):
            pair_stats(points, tangents, lam, 3.0, diagonal)
        # a zero diagonal is the default one
        zero = pair_stats(points, tangents, lam, 3.0, np.zeros(8))
        assert zero == pair_stats(points, tangents, lam, 3.0)

    def test_no_junctions_rejected(self):
        # numpy's "zero-size array to reduction operation" used to leak here
        with pytest.raises(ValueError, match="no junctions"):
            pair_stats(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), 3.0)

    def test_coincident_points_rejected(self):
        rng = np.random.default_rng(4)
        points, tangents, lam = random_configuration(rng, 40)
        for gap in (0.0, 1e-14):
            bad = points.copy()
            bad[17] = points[5] + gap
            with pytest.raises(CoincidentJunctionsError, match="coincident junction points"):
                pair_stats(bad, tangents, lam, 3.0)
            with pytest.raises(CoincidentJunctionsError, match="coincident junction points"):
                pair_stats(bad, tangents, lam, 80.0)

    def test_memory_bounded_at_n_4096(self, monkeypatch):
        # the dense (n, n, 3) path needs ~1.7 GB here; the bound holds at
        # this machine's CPU count and at the walker cap of a large machine
        rng = np.random.default_rng(0)
        points, tangents, lam = random_configuration(rng, 4096)
        for cpus in (energy._usable_cpus(), 64):
            monkeypatch.setattr(energy, "_usable_cpus", lambda: cpus)
            walkers = walker_threads(monkeypatch)
            tracemalloc.start()
            try:
                stats = pair_stats(points, tangents, lam, 3.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(walkers) == min(cpus, energy.MAX_WALKERS)
            assert math.isfinite(stats.energy)
            assert peak <= 64 * 2**20

    def test_tiling_leaves_grid_results_unchanged(self, monkeypatch):
        knot = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2.0, 0.5]))
        one_tile = (continuous_tp_energy(knot, 3.0, 64), thickness_and_ropelength(knot, 64))
        monkeypatch.setattr(curve, "PAIR_TILE", 100)  # one grid row per tile
        e, (delta, rope) = continuous_tp_energy(knot, 3.0, 64), thickness_and_ropelength(knot, 64)
        assert e == pytest.approx(one_tile[0], rel=1e-13)
        assert (delta, rope) == one_tile[1]


def row_tile_stats(points, tangents, lam, q):
    """The energy, largest quotient and smallest distance of the row-tile
    reference, reduced tile by tile as `pair_stats` reduces its tiles: each
    tile's largest quotient t and its sum of (x / t)^q w_i w_j, combined in
    tile order."""
    k = math.frexp(float(lam.max()))[1]
    w = np.ldexp(lam, -k)
    parts = []
    for lo, dist2, x in reference_tiles(points, tangents):
        top = float(x.max())
        s = float(w[lo : lo + len(x)] @ (energy._scaled_powers(x, top, q) @ w))
        parts.append((top, s, float(np.nanmin(dist2))))
    tops, sums, lows = zip(*parts)
    m = max(tops)
    total = sum(s * (t / m) ** q for t, s in zip(tops, sums))
    return float(energy._unscaled(total, m, q, k)[0]), m, math.sqrt(min(lows))


class TestTriangleWalk:
    """The pair kernel walks each pair once, in the upper triangle's tiles,
    and takes x_ij and x_ji from one difference d built by a matrix
    product: every quotient keeps the bits of the row-tile reference, which
    subtracts, and only the energy's summation order changes."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-500, 500),
        shift=st.floats(-1e6, 1e6),
        zeros=st.sampled_from([0.0, 0.1, 0.5]),
        lo=st.integers(0, 39),
        rows=st.integers(1, 40),
    )
    def test_matrix_product_difference_is_the_subtraction(
        self, seed, exponent, shift, zeros, lo, rows
    ):
        rng = np.random.default_rng(seed)
        n = 40
        # coordinates over 17 binary orders around 2^exponent, of both signs,
        # shifted by up to 1e6 times their extent, some +0.0 or -0.0
        spread = 2.0 ** rng.integers(-8, 9, size=(3, n))
        p = 2.0**exponent * (rng.normal(size=(3, n)) * spread + shift)
        hit = rng.random((3, n)) < zeros
        p[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
        tangents = np.tile([0.0, 0.0, 1.0], (n, 1))
        row_ops, col_ops, _ = energy._pair_operands(p.T, tangents)
        hi = min(n, lo + rows)
        d = np.matmul(row_ops[:, lo:hi], col_ops[:, :, lo:])
        # equal finite nonzero floats have equal bits; a zero difference may
        # differ in its sign, which no square sees
        assert np.array_equal(d, np.subtract(p[:, lo:hi, None], p[:, None, lo:]))

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("n", [64, 300, 2048])
    @pytest.mark.parametrize("shape", ["ellipse", "knot23", "random"])
    def test_every_quotient_keeps_its_bits(self, seed_curves, shape, n, scale):
        if shape == "random":
            points, tangents, lam = random_configuration(np.random.default_rng(n), n)
        else:
            spec = seed_curves[shape]
            _, points, tangents = grid_nodes(spec, n)
            lam = np.full(n, spec.length / n)
        points, lam = scale * points, scale * lam
        p, frame = points.T, energy._normal_frame(tangents.T)

        def reference(rows, cols):
            d = np.subtract(p[:, rows, None], p[:, None, cols], order="C")
            return energy._quotients(d, frame[:, :, None, cols])

        walked = np.zeros((n, n), dtype=np.int8)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo, cols, dist2, x, _ in energy._pair_tiles(energy._pair_operands(points, tangents)):
                hi = lo + x.shape[1]
                ahead, behind = slice(lo, hi), slice(lo, None)
                assert cols == slice(lo, n)
                ref_dist2, ref_x = reference(ahead, behind)
                diagonal = (np.arange(hi - lo), np.arange(hi - lo))
                ref_dist2[diagonal], ref_x[diagonal] = np.nan, 0.0
                assert np.array_equal(dist2, ref_dist2, equal_nan=True)
                assert np.array_equal(x[0], ref_x)
                # x_ji for the columns past the tile, none before them
                assert np.array_equal(x[1, :, hi - lo :], reference(slice(hi, None), ahead)[1].T)
                assert not x[1, :, : hi - lo].any()
                walked[ahead, behind] += 1
                walked[hi:, ahead] += 1
        assert np.all(walked == 1)

        stats = pair_stats(points, tangents, lam, 3.0)
        energy_before, max_quotient, min_distance = row_tile_stats(points, tangents, lam, 3.0)
        assert stats.max_quotient == max_quotient
        assert stats.min_distance == min_distance
        assert stats.energy == pytest.approx(energy_before, rel=1e-15)


class TestNormalFrame:
    """`energy._normal_frame` gives each unit tangent two normals that make
    an orthonormal frame with it to a few rounding errors."""

    EPS = np.finfo(float).eps

    @staticmethod
    def tangents():
        """Random unit tangents, the poles, and tangents in the plane z = 0,
        with z = -0.0 and +0.0, as columns."""
        rng = np.random.default_rng(21)
        special = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-9, -1e-9, -1.0], [1.0, 0.0, -0.0]]
        special += [[0.0, -1.0, -0.0], [0.6, 0.8, 0.0], [-0.6, 0.8, -0.0]]
        t = np.concatenate([rng.normal(size=(3, 10000)), np.array(special).T], axis=1)
        return t / np.linalg.norm(t, axis=0)

    def test_orthonormal(self):
        t = self.tangents()
        n1, n2 = energy._normal_frame(t)
        for n in (n1, n2):
            assert np.abs(np.einsum("ij,ij->j", n, t)).max() <= 4 * self.EPS
            assert np.abs(np.sqrt(np.einsum("ij,ij->j", n, n)) - 1.0).max() <= 4 * self.EPS
        assert np.abs(np.einsum("ij,ij->j", n1, n2)).max() <= 4 * self.EPS

    def test_floats_and_arrays_give_the_same_bits(self):
        # the anneal frames a moved tangent on floats, the table fill on arrays
        t = self.tangents()
        frames = energy._normal_frame(t)
        for k in [*range(0, t.shape[1], 97), *range(-7, 0)]:
            one = energy._normal_frame(t[:, k].tolist())
            assert one.tobytes() == np.ascontiguousarray(frames[:, :, k]).tobytes()


class TestQuotientAccuracy:
    """The frame quotient against an exact rational reference,
    x^2 = 4 (|d|^2 |t|^2 - (d . t)^2) / (|t|^2 |d|^4) of the float operands.
    For near-parallel pairs at angle theta its error grows as eps / theta,
    as every formula's does that takes d's normal part from rounded d and t.
    The largest error measured over these pairs is 1.7 eps / theta."""

    EPS = np.finfo(float).eps

    @staticmethod
    def exact_square(row, col, tangent):
        d = [Fraction(a) - Fraction(b) for a, b in zip(row, col)]
        t = [Fraction(v) for v in tangent]
        dd, tt = sum(v * v for v in d), sum(v * v for v in t)
        dt = sum(a * b for a, b in zip(d, t))
        return 4 * (dd * tt - dt * dt) / (tt * dd * dd)

    @pytest.mark.parametrize("theta", [1e-1, 1e-3, 1e-5, 1e-7])
    def test_relative_error_scales_as_eps_over_theta(self, theta):
        rng = np.random.default_rng(22)
        for scale in 10.0 ** np.arange(-3, 4):
            t = rng.normal(size=(3, 32))
            t /= np.linalg.norm(t, axis=0)
            u = rng.normal(size=(3, 32))
            u -= np.sum(u * t, axis=0) * t
            u /= np.linalg.norm(u, axis=0)
            cols = scale * rng.normal(size=(3, 32))
            length = scale * rng.uniform(0.5, 2.0, size=32)
            rows = cols + length * (math.cos(theta) * t + math.sin(theta) * u)
            _, x = energy._quotients(np.subtract(rows, cols), energy._normal_frame(t))
            for k in range(32):
                square = self.exact_square(rows[:, k], cols[:, k], t[:, k])
                # |x - X| / X to first order, from the exact squares
                error = abs(Fraction(float(x[k])) ** 2 - square) / (2 * square)
                assert float(error) <= 8 * self.EPS / theta


class TestPairWalkers:
    """pair_stats walks its triangle tiles in the caller and in helper
    threads, one walker per usable CPU: 40 junctions in tiles of about 120
    pairs give 9 tiles, rows [0, 3), [3, 6), ..., [36, 40) against the
    columns from their first row, more than the walkers. Tile i goes to
    walker i mod walkers, the caller being walker 0."""

    N = 40

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(curve, "PAIR_TILE", 3 * self.N)

    @staticmethod
    def walkers(monkeypatch, cpus):
        monkeypatch.setattr(energy, "_usable_cpus", lambda: cpus)
        return walker_threads(monkeypatch)

    @pytest.mark.parametrize("count, usable", [(5, 5), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, count, usable):
        # where the OS has no affinity call the count of CPUs stands, and
        # one CPU where even that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert energy._usable_cpus() == usable

    @pytest.mark.parametrize("q", [3.0, float(N)])
    @pytest.mark.parametrize("with_diagonal", [False, True], ids=["no-diagonal", "diagonal"])
    def test_bits_independent_of_walker_count(self, monkeypatch, q, with_diagonal):
        rng = np.random.default_rng(11)
        points, tangents, lam = random_configuration(rng, self.N)
        diagonal = rng.uniform(0.5, 2.0, size=self.N) if with_diagonal else None
        results = []
        for cpus in (1, 2, 3):
            threads = self.walkers(monkeypatch, cpus)
            results.append(pair_stats(points, tangents, lam, q, diagonal))
            assert len(threads) == cpus
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_walkers_switching_often(self, monkeypatch):
        # the walkers write their partials into one dict: with a thread
        # switch every microsecond a lost or misplaced partial would show
        rng = np.random.default_rng(12)
        config = random_configuration(rng, self.N)
        self.walkers(monkeypatch, 1)
        serial = pair_stats(*config, 3.0)
        threads = self.walkers(monkeypatch, energy.MAX_WALKERS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert pair_stats(*config, 3.0) == serial
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 20 * (energy.MAX_WALKERS - 1) + 1

    def test_single_tile_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(curve, "PAIR_TILE", self.N * self.N)
        threads = self.walkers(monkeypatch, 3)
        pair_stats(*random_configuration(np.random.default_rng(13), self.N), 3.0)
        assert threads == {threading.main_thread()}

    @pytest.mark.parametrize("rows, tiles, walkers", [(20, 2, 1), (12, 3, 1), (8, 4, 2), (6, 5, 2)])
    def test_each_walker_gets_two_tiles(self, monkeypatch, rows, tiles, walkers):
        # a helper thread starts only while every walker still gets two
        # tiles: two walkers on two tiles measured slower than one
        monkeypatch.setattr(curve, "PAIR_TILE", rows * self.N)
        threads = self.walkers(monkeypatch, 3)
        pair_stats(*random_configuration(np.random.default_rng(14), self.N), 3.0)
        assert len(list(curve._triangle_tiles(self.N))) == tiles
        assert len(threads) == walkers
        assert threading.main_thread() in threads

    @pytest.mark.parametrize("q", [3.0, float(N)])
    def test_walks_exactly_the_triangle_tiles(self, monkeypatch, q):
        # every pair counts in the energy: the walkers together take the
        # triangle tiles as they are, with no near-field box work
        def no_boxes(*_):
            raise AssertionError("near-field tiles in pair_stats")

        monkeypatch.setattr(energy, "_near_tiles", no_boxes)
        monkeypatch.setattr(energy, "_usable_cpus", lambda: 3)
        tiles = walked_tiles(monkeypatch)
        pair_stats(*random_configuration(np.random.default_rng(15), self.N), q)
        assert sorted(tiles, key=lambda tile: tile[0]) == list(curve._triangle_tiles(self.N))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_coincident_pair_in_a_helper_tile(self, monkeypatch, cpus):
        # the pair of rows 4 and 22 lies in tile 1, rows [3, 6) against the
        # columns from 3, which the first helper walks
        rng = np.random.default_rng(5)
        points, tangents, lam = random_configuration(rng, self.N)
        points[22] = points[4]
        self.walkers(monkeypatch, cpus)
        before = threading.active_count()
        # every helper runs its tiles under its own np.errstate: the 0 / 0
        # of the coincident pair warns nowhere, and no warning becomes the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coincident junction points"):
                pair_stats(points, tangents, lam, 3.0)
        assert threading.active_count() == before

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        scaled_powers = energy._scaled_powers

        def failing_in_helpers(x, m, q, spare=None):
            if threading.current_thread() is not threading.main_thread():
                raise ArithmeticError("helper failed")
            return scaled_powers(x, m, q, spare)

        monkeypatch.setattr(energy, "_scaled_powers", failing_in_helpers)
        threads = self.walkers(monkeypatch, 3)
        rng = np.random.default_rng(6)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="helper failed"):
            pair_stats(*random_configuration(rng, self.N), 3.0)
        assert len(threads) == 3
        # every helper was joined before the error was raised
        assert threading.active_count() == before


def walked_tiles(monkeypatch):
    """The tiles (lo, hi, cols) that `energy._pair_tiles` walks, over all
    walkers, filled by a spy that reads them one at a time, as
    `energy._pair_tiles` does."""
    walked = []
    pair_tiles = energy._pair_tiles

    def spy(operands, diagonal=None, tiles=None):
        for tile in curve._triangle_tiles(operands[2].shape[-1]) if tiles is None else tiles:
            walked.append(tile)
            yield from pair_tiles(operands, diagonal, [tile])

    monkeypatch.setattr(energy, "_pair_tiles", spy)
    return walked


def walked_pairs(tiles, n):
    widths = ((lo, hi, n - lo if isinstance(cols, slice) else len(cols)) for lo, hi, cols in tiles)
    return sum((hi - lo) * width for lo, hi, width in widths)


class TestPairInvariance:
    """pair_stats sums over the set of junction pairs: rigid motion, cyclic
    relabelling and reversal (reversed order, negated tangents) leave its
    results unchanged. A few rows per tile make the configuration span
    several tiles, the last one often partial."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 40),
        rows=st.integers(1, 4),
        shift=st.integers(1, 39),
        q=st.sampled_from([3.0, 80.0]),
    )
    def test_invariances(self, seed, n, rows, shift, q):
        rng = np.random.default_rng(seed)
        points, tangents, lam = random_configuration(rng, n)
        rot = random_rotation(rng)
        moved = (points @ rot.T + rng.normal(scale=10.0, size=3), tangents @ rot.T, lam)
        rolled = tuple(np.roll(a, shift, axis=0) for a in (points, tangents, lam))
        flipped = (points[::-1], -tangents[::-1], lam[::-1])
        with mock.patch.object(curve, "PAIR_TILE", rows * n):
            base = pair_stats(points, tangents, lam, q)
            for config in (moved, rolled, flipped):
                got = pair_stats(*config, q)
                # the energy's relative rounding error is q times that of
                # the quotients, so its q-th root is compared
                assert got.log_energy / q == pytest.approx(base.log_energy / q, abs=1e-12)
                assert got.max_quotient == pytest.approx(base.max_quotient, rel=1e-12)
                assert got.min_distance == pytest.approx(base.min_distance, rel=1e-12)
            # relabelling computes every quotient from the same operands:
            # only the order of the sum changes
            for config in (rolled, flipped):
                got = pair_stats(*config, q)
                assert got.max_quotient == base.max_quotient
                assert got.min_distance == base.min_distance


    @pytest.mark.parametrize("k", [-200, -7, 1, 9, 150])
    def test_dilation_by_powers_of_two(self, k):
        # a dilation by 2^k scales d exactly, so every x / top is unchanged
        # and so is each tile's sum, by multiplication at q = 3 or by pow:
        # at an integral q the results are the undilated ones with their
        # exponents moved, bit for bit
        rng = np.random.default_rng(23)
        points, tangents, lam = random_configuration(rng, 40)
        with mock.patch.object(curve, "PAIR_TILE", 5 * 40):
            for q in (2.0, 3.0, 4.0, 3.5):
                base = pair_stats(points, tangents, lam, q)
                got = pair_stats(np.ldexp(points, k), tangents, np.ldexp(lam, k), q)
                assert got.max_quotient == math.ldexp(base.max_quotient, -k)
                assert got.min_distance == math.ldexp(base.min_distance, k)
                if q == 3.5:  # pow, and 2^(shift % 1) rounds differently
                    expected = base.energy * 2.0 ** (k * (2 - q))
                    assert got.energy == pytest.approx(expected, rel=1e-15)
                else:
                    assert got.energy == math.ldexp(base.energy, k * (2 - int(q)))


class TestCloseJunctions:
    """Two junctions that are not neighbours along the chain, brought within
    a tiny gap of each other: pair_stats either rejects them as coincident
    or sums the pairs correctly, whatever the gap."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 40),
        i=st.integers(0, 39),
        offset=st.integers(0, 40),
        log_gap=st.floats(-15.0, -2.0),
        q=st.sampled_from([3.0, 80.0]),
    )
    def test_correct_or_typed_error(self, seed, n, i, offset, log_gap, q):
        i = i % n
        # j is at least two places from i in both directions around the chain
        j = (i + 2 + offset % (n - 3)) % n
        rng = np.random.default_rng(seed)
        points, tangents, lam = random_configuration(rng, n)
        diameter = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1).max()
        direction = rng.normal(size=3)
        gap = 10.0**log_gap * diameter
        points[j] = points[i] + gap * direction / np.linalg.norm(direction)
        try:
            got = pair_stats(points, tangents, lam, q)
        except ValueError as exc:
            assert str(exc) == "coincident junction points"
            return
        x, dist2, off = dense_pair_quotients(points, tangents)
        terms = q * np.log(x[off]) + np.log(np.outer(lam, lam)[off])
        top = terms.max()
        expected = top + np.log(np.sum(np.exp(terms - top)))
        assert got.log_energy / q == pytest.approx(expected / q, abs=1e-12)
        assert got.min_distance == pytest.approx(np.sqrt(dist2[off].min()), rel=1e-12)
        # the gap as stored; the closest pair unless two random junctions are closer
        stored = np.sqrt(dist2[i, j])
        assert stored == pytest.approx(gap, rel=1e-3)
        assert got.min_distance <= stored * (1.0 + 1e-12)


class TestContinuous:
    def test_unit_circle(self):
        circle = preset_curve("circle", [1.0])
        got = continuous_tp_energy(circle, 3.0, 512)
        assert got == pytest.approx(FOUR_PI2, abs=1e-6)

    def test_scaling(self):
        # a circle of radius d has energy d^(2-q) 4 pi^2
        got = continuous_tp_energy(preset_curve("circle", [3.0]), 3.0, 256)
        assert got == pytest.approx(FOUR_PI2 / 3.0, rel=1e-9)

    def test_ellipse_grid_stability(self):
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        a = continuous_tp_energy(ellipse, 3.0, 256)
        b = continuous_tp_energy(ellipse, 3.0, 512)
        assert abs(a - b) / b < 1e-3

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_below_one_rejected(self, grid):
        # grid 0 divided by zero
        with pytest.raises(ValueError, match=f"grid must be at least 1, got {grid}"):
            continuous_tp_energy(preset_curve("circle", [1.0]), 3.0, grid)

    def test_curve_must_be_arclength_parametrized(self):
        ellipse = preset_curve("ellipse", [2.0, 1.0])
        with pytest.raises(ValueError, match="continuous energy expects an arclength-parametrized curve"):
            continuous_tp_energy(ellipse, 3.0, 64)

    def test_shift_invariance(self):
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        shift = 1.2345

        shifted = CurveSpec(
            lambda s: ellipse.position(np.asarray(s) + shift),
            lambda s: ellipse.derivative(np.asarray(s) + shift),
            lambda s: ellipse.second_derivative(np.asarray(s) + shift),
            ellipse.arclength_table,
        )
        a = continuous_tp_energy(ellipse, 3.0, 256)
        b = continuous_tp_energy(shifted, 3.0, 256)
        assert b == pytest.approx(a, rel=1e-8)

    def test_power_mean_monotone_in_k(self):
        # normalized k-means of the grid quotients increase with k and
        # approach the grid maximum
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        grid = 64
        L = ellipse.length
        means = []
        for k in (3.0, 4.0, 8.0, 16.0, 32.0):
            val = continuous_tp_energy(ellipse, k, grid)
            means.append((val / L**2) ** (1.0 / k))
        assert np.all(np.diff(means) >= -1e-12)
        big = (continuous_tp_energy(ellipse, 400.0, grid) / L**2) ** (1.0 / 400.0)
        s = (np.arange(grid) + 0.5) * (L / grid)
        pos, tan = ellipse.position(s), ellipse.derivative(s)
        diff = pos[None, :, :] - pos[:, None, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        along = np.einsum("ijk,ik->ij", diff, tan)
        x = 2 * np.sqrt(np.maximum(dist2 - along**2, 0)) / np.where(dist2 > 0, dist2, 1)
        np.fill_diagonal(x, curvature_values(ellipse, s))
        grid_max = x.max()
        assert means[-1] <= big <= grid_max + 1e-9
        assert big >= 0.95 * grid_max

    def test_embedding_guard(self):
        def position(u):
            u = np.asarray(u, dtype=float)
            return np.stack([np.sin(2 * u), np.sin(u), np.zeros_like(u)], axis=-1)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            return np.stack([2 * np.cos(2 * u), np.cos(u), np.zeros_like(u)], axis=-1)

        eight = arclength_reparametrize(analytic_curve(position, derivative))
        # align the self-crossing (at arclengths 0 and L/2) with midpoint
        # quadrature nodes so the chord collapse is visible on the grid
        grid = 256
        shift = 0.5 * eight.length / grid
        shifted = CurveSpec(
            lambda s: eight.position(np.asarray(s) - shift),
            lambda s: eight.derivative(np.asarray(s) - shift),
            None,
            eight.arclength_table,
        )
        with pytest.raises(ValueError):
            continuous_tp_energy(shifted, 3.0, grid)

    @pytest.mark.parametrize("q", [math.inf, math.nan, 2.0, -math.inf])
    def test_power_outside_the_range_rejected(self, q):
        # before the pair walk, so no power is reported as a collision
        circle = preset_curve("circle", [1.0])
        with pytest.raises(ValueError, match="power q must be finite and exceed 2"):
            continuous_tp_energy(circle, q, 64)

    def test_non_unit_tangents_are_not_a_collision(self):
        # a derivative off unit length is named as such, not as non-embedded
        circle = preset_curve("circle", [1.0])
        stretched = replace(circle, derivative=lambda s: 1.001 * circle.derivative(s))
        with pytest.raises(ValueError, match="unit vectors"):
            continuous_tp_energy(stretched, 3.0, 64)

    def test_doubly_traversed_circle_is_not_embedded(self):
        # node i and node i + grid/2 lie on the same point: the pairs lie in
        # the four of five triangle tiles that start below grid/2
        grid = 512
        starts = [lo for lo, _, _ in curve._triangle_tiles(grid)]
        assert (len(starts), sum(lo < grid // 2 for lo in starts)) == (5, 4)
        with pytest.raises(ValueError, match="not embedded"):
            continuous_tp_energy(doubly_traversed_circle(), 3.0, grid)


def mean_curvature(beta, q):
    """Each biarc's lambda-weighted q-mean curvature, kbar_i^q = sum over its
    two arcs of k_a^q l_a / lambda_i, taken relative to the largest k_a so
    that no power overflows."""
    k = np.abs(beta.arc_k)
    top = k.max()
    per_biarc = ((k / top) ** q * np.diff(beta.arc_offsets)).reshape(-1, 2).sum(axis=1)
    return top * (per_biarc / beta.segment_lengths) ** (1.0 / q)


class TestRateConstant:
    """The ~1/n gap between the discrete and the continuous energy is the
    diagonal the discrete sum leaves out: n (E(gamma) - E_disc) / L tends to
    the integral of kappa^q, and with each biarc's mean curvature on the
    diagonal the error falls at third order on uniform partitions."""

    Q = 3.0

    @staticmethod
    def curvature_integral(curve, q):
        L = curve.length
        s = (np.arange(20000) + 0.5) * (L / 20000)
        return float(np.sum(curvature_values(curve, s) ** q)) * (L / 20000)

    @pytest.fixture(scope="class")
    def ellipse(self):
        curve = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        integral = self.curvature_integral(curve, self.Q)
        assert integral == pytest.approx(9.449321653, rel=1e-9)
        return curve, continuous_tp_energy(curve, self.Q, 2048), integral

    def corrected(self, beta):
        lam = beta.segment_lengths
        diagonal = mean_curvature(beta, self.Q)
        return pair_stats(beta.junction_points, beta.junction_tangents, lam, self.Q, diagonal).energy

    @pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 8.0])
    def test_the_gap_tends_to_the_curvature_integral(self, ellipse, q):
        curve = ellipse[0]
        n, L = 512, curve.length
        reference = continuous_tp_energy(curve, q, 2048)
        beta = build_biarc_curve(curve, make_partition(L, n))
        gap = reference - discrete_tp_energy(beta, q, gated=False, L=L)
        # measured: 2.5e-7 at q = 2.5 and 3, 2.6e-7 at 4 and 2.7e-7 at 8
        assert n * gap / L == pytest.approx(self.curvature_integral(curve, q), rel=1e-5)

    @pytest.mark.parametrize("rho, bound", [(0.1, 1.2e-3), (0.3, 1.0e-2)])
    def test_the_jittered_gap_has_mean_one_plus_two_thirds_rho_squared(self, ellipse, rho, bound):
        # a gap lambda = h (1 + o_{i+1} - o_i), o uniform on [-rho, rho],
        # weighs the left-out diagonal by lambda^2: E[(lambda / h)^2] = 1 +
        # 2 rho^2 / 3. Measured over seeds 0-11: mean 1.00646 (sd 0.0014) at
        # rho = 0.1 and 1.0587 (sd 0.012) at 0.3; the bounds are about three
        # standard errors of those spreads
        curve, reference, integral = ellipse
        n, L = 1024, curve.length
        ratios = []
        for seed in range(12):
            beta = build_biarc_curve(curve, make_partition(L, n, f"jitter:{rho}", seed))
            gap = reference - discrete_tp_energy(beta, self.Q, gated=False, L=L)
            ratios.append(n * gap / (L * integral))
        assert np.mean(ratios) == pytest.approx(1.0 + 2.0 * rho**2 / 3.0, abs=bound)

    def test_the_corrected_error_is_third_order(self, ellipse):
        curve, reference, _ = ellipse
        errors = []
        for n in (128, 256, 512, 1024, 2048):
            beta = build_biarc_curve(curve, make_partition(curve.length, n))
            errors.append(abs(reference - self.corrected(beta)))
        # measured: 5.29e-4 down to 1.33e-7, 7.86-7.99 times per doubling
        assert errors[0] < 1e-3
        assert all(a >= 7.0 * b for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_the_corrected_circle_is_exact(self, n):
        circle = preset_curve("circle", [1.0])
        beta = build_biarc_curve(circle, make_partition(circle.length, n))
        assert self.corrected(beta) == pytest.approx(
            continuous_tp_energy(circle, self.Q, 64), rel=1e-12
        )


class TestThickness:
    def test_unit_circle(self):
        delta, rope = thickness_and_ropelength(preset_curve("circle", [1.0]), 64)
        assert delta == pytest.approx(1.0, abs=1e-6)
        assert rope == pytest.approx(TWO_PI, abs=1e-5)

    def test_scale_invariant_ropelength(self):
        delta, rope = thickness_and_ropelength(preset_curve("circle", [3.0]), 64)
        assert delta == pytest.approx(3.0, abs=1e-6)
        assert rope == pytest.approx(TWO_PI, abs=1e-5)

    def test_torus_knot_stable(self):
        knot = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2.0, 0.5]))
        d64, _ = thickness_and_ropelength(knot, 64)
        d128, _ = thickness_and_ropelength(knot, 128)
        assert d64 > 0
        assert abs(d64 - d128) / d128 < 5e-3

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_below_one_rejected(self, grid):
        # grid 0 divided by zero
        with pytest.raises(ValueError, match=f"grid must be at least 1, got {grid}"):
            thickness_and_ropelength(preset_curve("circle", [1.0]), grid)

    def test_curve_must_be_arclength_parametrized(self):
        ellipse = preset_curve("ellipse", [2.0, 1.0])
        with pytest.raises(ValueError, match="thickness expects an arclength-parametrized curve"):
            thickness_and_ropelength(ellipse, 64)

    # Delta from eight Nelder-Mead runs (xatol 1e-10 L, fatol 1e-12) on
    # the same grid seeds, the refinement used before the compass search
    @pytest.mark.parametrize("grid, nelder_mead", [(64, 0.4999999999999998), (128, 0.49999999999999967)])
    def test_torus_knot_matches_nelder_mead(self, knot, grid, nelder_mead):
        delta, _ = thickness_and_ropelength(knot, grid)
        assert abs(delta - nelder_mead) <= 1e-9

    @pytest.mark.parametrize("grid", [64, 100, 512, 2048])
    @pytest.mark.parametrize("name", ["circle", "ellipse", "knot23", "knot35", "mollified", "chain"])
    def test_seed_cells_match_float_band_scan(self, seed_curves, name, grid):
        spec = seed_curves[name]
        s, pos, tan = grid_nodes(spec, grid)
        seeds = energy._thickness_seeds(pos, tan, spec.length)
        assert seeds.tolist() == float_band_seeds(pos, tan, s, spec.length)

    def test_seed_scan_skips_the_far_field(self, seed_curves, monkeypatch):
        grid = 2048
        evaluated = []  # the differences of each walked tile, both orders from one

        def counting(*args, **kwargs):
            for tile in pair_tiles(*args, **kwargs):
                evaluated.append(tile[2].size)
                yield tile

        pair_tiles = energy._pair_tiles
        monkeypatch.setattr(energy, "_pair_tiles", counting)
        _, pos, tan = grid_nodes(seed_curves["knot23"], grid)
        energy._thickness_seeds(pos, tan, seed_curves["knot23"].length)
        assert sum(evaluated) < grid * grid / 6
        # on the circle every pair lies within 2 / tau: every triangle tile
        # is walked in full
        evaluated.clear()
        _, pos, tan = grid_nodes(seed_curves["circle"], grid)
        energy._thickness_seeds(pos, tan, seed_curves["circle"].length)
        assert evaluated == [(hi - lo) * (grid - lo) for lo, hi, _ in curve._triangle_tiles(grid)]
        assert max(evaluated) <= curve.PAIR_TILE

    def test_seed_scan_walks_the_near_columns(self, seed_curves, monkeypatch):
        # the near columns of each triangle tile, node by node: 350 113
        # differences, where blocks of 16 nodes took 393 450 and tiles
        # against whole tiles 538 481
        tiles = walked_tiles(monkeypatch)
        _, pos, tan = grid_nodes(seed_curves["knot23"], 2048)
        energy._thickness_seeds(pos, tan, seed_curves["knot23"].length)
        assert walked_pairs(tiles, 2048) == 350_113

    def test_near_tiles_read_the_reach_per_tile(self, knot, monkeypatch):
        # a reach that shrinks from tile to tile: each tile is built from
        # the reach as it stands when the tile is asked for, and holds every
        # column from lo on within that reach of one of its rows
        n = 300
        monkeypatch.setattr(curve, "PAIR_TILE", 8 * n)
        _, pos, _ = grid_nodes(knot, n)
        dist = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(axis=-1))
        reach = [math.inf]
        reads = []
        tiles = energy._near_tiles(np.ascontiguousarray(pos.T), lambda: reads.append(reach[0]) or reach[0])
        skipped = 0
        for count, (lo, hi, cols) in enumerate(tiles, start=1):
            # one read per tile, of the reach set after the tile before
            assert len(reads) == count and reads[-1] == reach[0]
            cols = np.arange(n)[cols]
            assert (cols[: hi - lo] == np.arange(lo, hi)).all() and (np.diff(cols) > 0).all()
            near = lo + np.flatnonzero(dist[lo:hi, lo:].min(axis=0) <= reach[0])
            assert np.isin(near, cols).all()
            skipped += n - lo - len(cols)
            reach[0] = 2.0 / count
        assert reads[0] == math.inf and reads[-1] < 0.2
        assert skipped > 0

    def test_seed_scan_memory_bounded(self, knot):
        # the (grid, grid) quotients alone take 32 MB here. The scan holds,
        # in 8-byte entries, the walk's six work buffers of the largest tile
        # (|d|^2 shares the projections' block; a seventh buffer for it read
        # 2 525 924 bytes), one argpartition index array over one order of a
        # tile (both orders at once took another) and, per node, the walk's
        # 18 operands, 12 of a tile's gathered columns and two index arrays
        grid = 2048
        size = max((hi - lo) * (grid - lo) for lo, hi, _ in curve._triangle_tiles(grid))
        _, pos, tan = grid_nodes(knot, grid)
        tracemalloc.start()
        try:
            energy._thickness_seeds(pos, tan, knot.length)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * ((6 + 1) * size + (18 + 12 + 2) * grid)

    @pytest.mark.parametrize("grid", [64, 2048])
    def test_not_embedded(self, grid):
        # torus_knot(2, 4) is the (1, 2) torus knot traversed twice
        for spec in (
            doubly_traversed_circle(),
            arclength_reparametrize(preset_curve("torus_knot", [2, 4, 2.0, 0.5])),
        ):
            with pytest.raises(ValueError, match="not embedded"):
                thickness_and_ropelength(spec, grid)

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.125, 8.0),
        reverse=st.booleans(),
    )
    def test_rigid_motion_reversal_and_dilation(self, knot, seed, scale, reverse):
        # the pruning boxes are axis-aligned, so they change with the pose
        base = thickness_and_ropelength(knot, 2048)
        rng = np.random.default_rng(seed)
        shift = rng.normal(scale=10.0, size=3)
        spec = moved(knot, random_rotation(rng), shift, scale, reverse)
        delta, rope = thickness_and_ropelength(spec, 2048)
        assert delta == pytest.approx(scale * base[0], rel=1e-12)
        assert rope == pytest.approx(base[1], rel=1e-12)

    @pytest.mark.parametrize("grid", [64, 128])
    def test_refinement_never_below_seed_cell(self, knot, grid):
        L = knot.length
        s = (np.arange(grid) + 0.5) * (L / grid)
        seeds = energy._thickness_seeds(knot.position(s), knot.derivative(s), L)
        start = energy._inverse_tp(knot, L, s[seeds[:, 0]], s[seeds[:, 1]])
        refined = energy._refine_inverse_tp(knot, L, s[seeds[:, 0]], s[seeds[:, 1]], L / grid)
        assert np.all(refined >= start)
        assert refined.max() > start.max()

    # eps = 1/8 puts the largest inverse radius on a narrow ridge that no
    # compass direction follows (Nelder-Mead: 0.49985709450785204); at
    # eps = 1/256 every Nelder-Mead run stopped at its iteration limit
    @pytest.mark.parametrize("eps, expected, tol", [(1 / 8, 0.49985709450785204, 1e-9), (1 / 256, 0.5, 1e-6)])
    def test_mollified_torus_knot(self, knot, eps, expected, tol):
        delta, _ = thickness_and_ropelength(mollify(knot, eps), 64)
        assert abs(delta - expected) <= tol

    @pytest.mark.parametrize("grid", [64, 256, 2048])
    @pytest.mark.parametrize("phase", [0.3, 0.123456])
    def test_curvature_maximum_between_nodes(self, phase, grid):
        # the 2:1 ellipse turned by a phase: its largest curvature 2, at the
        # ends of the major axis, lies between the length table's nodes,
        # where the node values alone gave Delta = 0.50000098 and 0.50000122
        def field(sign, x, y):  # sign (2 x(u + phase), y(u + phase), 0)
            return lambda u: sign * np.stack([2.0 * x(u + phase), y(u + phase), 0.0 * u], -1)

        ellipse = analytic_curve(
            field(1.0, np.cos, np.sin), field(-1.0, np.sin, lambda v: -np.cos(v)), field(-1.0, np.cos, np.sin)
        )
        delta, _ = thickness_and_ropelength(arclength_reparametrize(ellipse), grid)
        assert delta == pytest.approx(0.5, rel=1e-12)

    def test_step_budget_exhausted(self, knot, monkeypatch):
        monkeypatch.setattr(energy, "REFINE_STEPS", 3)
        with pytest.raises(RuntimeError, match="did not converge"):
            thickness_and_ropelength(knot, 64)


class TestChainAsCurve:
    """A chain measured as a curve through ``beta.spec``. Its arcs are exact,
    so a circle chain has the circle's thickness and energy. The compass
    refinement's objective is only piecewise smooth on a chain."""

    @staticmethod
    def chain(curve, n, mode):
        return build_biarc_curve(curve, make_partition(curve.length, n, mode, seed=1))

    @pytest.mark.parametrize("mode", ["uniform", "jitter:0.2"])
    def test_circle_chain_is_the_circle(self, mode):
        beta = self.chain(preset_curve("circle", [3.0]), 32, mode)
        delta, _ = thickness_and_ropelength(beta.spec, 64)
        assert delta == pytest.approx(3.0, rel=1e-9)
        energy_3 = continuous_tp_energy(beta.spec, 3.0, 1024)
        assert energy_3 == pytest.approx(FOUR_PI2 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("mode", ["uniform", "jitter:0.2"])
    def test_rigid_motion_and_dilation(self, mode):
        beta = self.chain(preset_curve("circle", [3.0]), 32, mode)
        rng = np.random.default_rng(3)
        rot, shift = random_rotation(rng), rng.normal(scale=10.0, size=3)
        moved_beta = from_junctions(
            2.0 * beta.junction_points @ rot.T + shift, beta.junction_tangents @ rot.T
        )
        delta, _ = thickness_and_ropelength(beta.spec, 64)
        moved_delta, _ = thickness_and_ropelength(moved_beta.spec, 64)
        assert moved_delta == pytest.approx(2.0 * delta, rel=1e-9)

    @pytest.mark.parametrize("n", [32, 128, 256, 512, 1024, 2048])
    @pytest.mark.parametrize("mode", ["uniform", "jitter:0.3"])
    def test_ellipse_chain_thickness_is_its_largest_curvature(self, n, mode):
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        beta = self.chain(ellipse, n, mode)
        delta, _ = thickness_and_ropelength(beta.spec, 64)
        assert delta == pytest.approx(1.0 / beta.arc_k.max(), rel=1e-9)

    @pytest.mark.parametrize("mode", ["uniform", "jitter:0.2"])
    def test_curvature_refinement_keeps_the_arc_values(self, mode):
        # a chain's curvature is constant on each arc, so refining between
        # the arc breaks finds rounding noise alone and keeps the largest
        # value at the breaks, bit for bit
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        for curve in (preset_curve("circle", [1.0]), ellipse):
            spec = self.chain(curve, 64, mode).spec
            breaks = spec.arclength_table[:-1, 0]
            assert energy._largest_curvature(spec) == curvature_values(spec, breaks).max()

    def test_knot_chain_ropelength_approaches_the_knot(self, knot):
        _, target = thickness_and_ropelength(knot, 64)
        gaps = [
            abs(thickness_and_ropelength(self.chain(knot, n, "uniform").spec, 64)[1] - target)
            for n in (32, 64, 128)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestProxy:
    def test_circle_closed_form(self):
        # every x_ij on a circle of radius R is 1/R, so E_n = n (n-1) lam^2
        # R^-n, and the proxy on the exact circle interpolant collapses to
        # 2 pi (1 - 1/n)^(1/n) at every radius: a gap of about 2 pi / n^2
        for n in (16, 64, 256, 1024, 2048):
            for radius in (0.37, 1.0, 3.0):
                circle, beta = circle_beta(n, radius)
                got = ropelength_proxy(beta, circle.length)
                assert got == pytest.approx(TWO_PI * (1 - 1 / n) ** (1 / n), rel=1e-12)

    @pytest.mark.parametrize(
        "name, params, grid, band",
        [
            ("ellipse", [2.0, 1.0], 512, (0.95, 1.05)),
            ("torus_knot", [2, 3, 2.0, 0.5], 2048, (0.47, 0.57)),
            ("torus_knot", [3, 5, 2.0, 0.5], 2048, (0.95, 1.20)),
            ("torus_knot", [2, 3, 2.0, 0.8], 2048, (0.47, 0.57)),
        ],
        ids=["ellipse", "torus_knot", "torus_knot_3_5", "torus_knot_r_0.8"],
    )
    def test_gap_law_on_uniform_partitions(self, name, params, grid, band):
        # gap = R (b ln n + c) / n, R the thickness reference, with b = 2 -
        # gamma when ~n^gamma pairs lie within O(1/n) of the largest
        # quotient: b = 1 where it is attained at isolated points (the
        # ellipse's vertices, the (3, 5) knot), b = 1/2 along a ridge (the
        # (2, 3) knots). The slope of n gap / R against ln n over n = 256
        # ... 2048 measured 1.000 on the 2:1 ellipse, 0.522 on the (2, 3, 2,
        # 0.5) knot, 0.5175 on the (2, 3, 2, 0.8) knot and 1.104 on the
        # (3, 5) knot, whose per-doubling slopes still fall: 1.216, 1.076,
        # 1.030
        shape = arclength_reparametrize(preset_curve(name, params))
        _, reference = thickness_and_ropelength(shape, grid)
        ns = np.array([256, 512, 1024, 2048])
        scaled = []
        for n in ns:
            beta = build_biarc_curve(shape, make_partition(shape.length, int(n)))
            scaled.append(n * abs(ropelength_proxy(beta, shape.length) - reference) / reference)
        slope = np.polyfit(np.log(ns), scaled, 1)[0]
        assert band[0] < slope < band[1]

    @pytest.mark.parametrize(
        "params, per_decade",
        [([2, 3, 2.0, 0.5], math.sqrt(10.0)), ([2, 3, 2.0, 0.8], math.sqrt(10.0)), ([3, 5, 2.0, 0.5], 10.0)],
        ids=["torus_knot", "torus_knot_r_0.8", "torus_knot_3_5"],
    )
    def test_largest_quotient_on_a_ridge_or_isolated(self, params, per_decade):
        # the gamma of the gap law, read from the inverse radius itself: the
        # cells with x >= m (1 - eps) cover an area ~eps around an isolated
        # maximum and a band of width ~sqrt(eps) along a ridge, so their
        # count grows by 10 or sqrt(10) per decade of eps. Over eps = 1e-3
        # ... 1e-1 this 512^2 grid measured 3.27 and 3.39 on the (2, 3)
        # knots and 9.3 on the (3, 5) knot (a 3000^2 grid: 3.16-3.20 and
        # 11.2-14.6 per decade)
        shape = arclength_reparametrize(preset_curve("torus_knot", params))
        s = (np.arange(512) + 0.5) * (shape.length / 512)
        x = energy._inverse_tp(shape, shape.length, s[:, None], s[None, :])
        counts = [np.count_nonzero(x >= x.max() * (1.0 - eps)) for eps in (1e-1, 1e-3)]
        assert abs(math.log10(math.sqrt(counts[0] / counts[1]) / per_decade)) < 0.15

    def test_gap_decreases(self):
        gaps = []
        for n in (16, 32, 64, 128):
            circle, beta = circle_beta(n)
            gaps.append(abs(ropelength_proxy(beta, circle.length) - TWO_PI))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        for n in (8, 12, 20):
            beta = jittered_circle_config(rng, n)
            lam = beta.segment_lengths
            x, _, off = dense_pair_quotients(beta.junction_points, beta.junction_tangents)
            direct_energy = float(np.sum(x[off] ** n * np.outer(lam, lam)[off]))
            direct = TWO_PI ** ((n - 2) / n) * direct_energy ** (1 / n)
            assert ropelength_proxy(beta, TWO_PI) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("radius", [1e-150, 1e-20, 1e150])
    def test_dilation_invariant_at_extreme_scales(self, radius):
        # the raw sum of x^n lam lam overflows or underflows at these radii;
        # the sum relative to its largest quotient keeps the proxy
        for n in (8, 16):
            circle, beta = circle_beta(n)
            scaled, dilated = circle_beta(n, radius)
            got = ropelength_proxy(dilated, scaled.length)
            assert got == pytest.approx(ropelength_proxy(beta, circle.length), rel=1e-12)

    def test_gate_failure(self):
        _, beta = circle_beta(16)
        small = from_junctions(0.2 * beta.junction_points, beta.junction_tangents)
        assert ropelength_proxy(small, TWO_PI) == math.inf


class TestHolder:
    def test_equal_exponents_are_tight(self):
        circle, beta = circle_beta(16)
        chk = holder_bound_check(beta, 3.0, 3.0, circle.length)
        assert chk.holds
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    def test_circle(self):
        circle, beta = circle_beta(16)
        chk = holder_bound_check(beta, 2.0, 8.0, circle.length)
        assert chk.holds and chk.lhs <= chk.rhs

    def test_random_configurations(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            beta = jittered_circle_config(rng, 12)
            for k, m in ((2.0, 4.0), (3.0, 9.0)):
                assert holder_bound_check(beta, k, m, TWO_PI).holds

    def test_bad_exponents(self):
        circle, beta = circle_beta(8)
        with pytest.raises(ValueError):
            holder_bound_check(beta, 4.0, 3.0, circle.length)

    def test_gate_failure_is_error(self):
        _, beta = circle_beta(8)
        small = from_junctions(0.1 * beta.junction_points, beta.junction_tangents)
        with pytest.raises(ValueError):
            holder_bound_check(small, 2.0, 4.0, TWO_PI)

