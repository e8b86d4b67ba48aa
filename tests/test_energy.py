import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import jittered_circle_config, random_rotation
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
        period=scale * L,
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
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, _, x in energy._pair_tiles(pos, tan):
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

    def test_log_space_matches_direct(self):
        _, beta = circle_beta(16)
        direct = discrete_tp_energy(beta, 12.0, gated=False, L=TWO_PI)
        # force the log-space branch with a power above the switch
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

        # log space at q = n (forced above the switch for n = 3)
        q = float(n) if n > energy.LOG_SPACE_POWER else 60.0
        terms = q * np.log(x[off]) + np.log(w[off])
        top = terms.max()
        expected = top + np.log(np.sum(np.exp(terms - top)))
        logged = pair_stats(points, tangents, lam, q)
        assert logged.log_energy == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert logged.max_quotient == plain.max_quotient
        assert logged.min_distance == plain.min_distance

    def test_coincident_points_rejected(self):
        rng = np.random.default_rng(4)
        points, tangents, lam = random_configuration(rng, 40)
        for gap in (0.0, 1e-14):
            bad = points.copy()
            bad[17] = points[5] + gap
            with pytest.raises(ValueError, match="coincident junction points"):
                pair_stats(bad, tangents, lam, 3.0)
            with pytest.raises(ValueError, match="coincident junction points"):
                pair_stats(bad, tangents, lam, 80.0)

    def test_memory_bounded_at_n_4096(self):
        # the dense (n, n, 3) path needs ~1.7 GB here
        rng = np.random.default_rng(0)
        points, tangents, lam = random_configuration(rng, 4096)
        tracemalloc.start()
        try:
            stats = pair_stats(points, tangents, lam, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(stats.energy)
        assert peak <= 64 * 2**20

    def test_tiling_leaves_grid_results_unchanged(self, monkeypatch):
        knot = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2.0, 0.5]))
        one_tile = (continuous_tp_energy(knot, 3.0, 64), thickness_and_ropelength(knot, 64))
        monkeypatch.setattr(curve, "PAIR_TILE", 100)  # one grid row per tile
        e, (delta, rope) = continuous_tp_energy(knot, 3.0, 64), thickness_and_ropelength(knot, 64)
        assert e == pytest.approx(one_tile[0], rel=1e-13)
        assert (delta, rope) == one_tile[1]


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

    def test_shift_invariance(self):
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        shift = 1.2345

        shifted = CurveSpec(
            ellipse.period,
            lambda s: ellipse.position(np.asarray(s) + shift),
            lambda s: ellipse.derivative(np.asarray(s) + shift),
            lambda s: ellipse.second_derivative(np.asarray(s) + shift),
            ellipse.arclength_table,
            True,
            "ellipse-shifted",
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
            eight.period,
            lambda s: eight.position(np.asarray(s) - shift),
            lambda s: eight.derivative(np.asarray(s) - shift),
            None,
            eight.arclength_table,
            True,
            "eight",
        )
        with pytest.raises(ValueError):
            continuous_tp_energy(shifted, 3.0, grid)

    def test_doubly_traversed_circle_is_not_embedded(self):
        # node i and node i + grid/2 lie on the same point in every row tile
        grid = 512
        assert len(list(curve._row_tiles(grid))) == 8
        with pytest.raises(ValueError, match="not embedded"):
            continuous_tp_energy(doubly_traversed_circle(), 3.0, grid)


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

    # Delta from eight Nelder-Mead runs (xatol 1e-10 L, fatol 1e-12) on
    # the same grid seeds, the refinement used before the compass search
    @pytest.mark.parametrize("grid, nelder_mead", [(64, 0.4999999999999998), (128, 0.49999999999999967)])
    def test_torus_knot_matches_nelder_mead(self, knot, grid, nelder_mead):
        delta, _ = thickness_and_ropelength(knot, grid)
        assert abs(delta - nelder_mead) <= 1e-9

    @pytest.mark.parametrize("grid", [64, 512, 2048])
    @pytest.mark.parametrize("name", ["circle", "ellipse", "knot23", "knot35", "mollified"])
    def test_seed_cells_match_float_band_scan(self, seed_curves, name, grid):
        spec = seed_curves[name]
        s, pos, tan = grid_nodes(spec, grid)
        seeds = energy._thickness_seeds(pos, tan, spec.length)
        assert seeds.tolist() == float_band_seeds(pos, tan, s, spec.length)

    def test_seed_scan_skips_the_far_field(self, seed_curves, monkeypatch):
        grid = 2048
        evaluated = []

        def counting(rows, cols, tangents):
            dist2, x = quotients(rows, cols, tangents)
            evaluated.append(x.size)
            return dist2, x

        quotients = energy._quotients
        monkeypatch.setattr(energy, "_quotients", counting)
        _, pos, tan = grid_nodes(seed_curves["knot23"], grid)
        energy._thickness_seeds(pos, tan, seed_curves["knot23"].length)
        assert sum(evaluated) < grid * grid / 3
        # on the circle every pair lies within 2 / tau: pass 2 evaluates
        # all grid^2 pairs after the strided rows of pass 1
        evaluated.clear()
        _, pos, tan = grid_nodes(seed_curves["circle"], grid)
        energy._thickness_seeds(pos, tan, seed_curves["circle"].length)
        strided = len(range(0, grid, energy.SEED_STRIDE))
        assert sum(evaluated) == (strided + grid) * grid
        assert max(evaluated) <= curve.PAIR_TILE

    def test_seed_scan_memory_bounded(self, knot):
        # the (grid, grid) quotients alone take 32 MB here
        _, pos, tan = grid_nodes(knot, 2048)
        tracemalloc.start()
        try:
            energy._thickness_seeds(pos, tan, knot.length)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * curve.PAIR_TILE

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

    def test_step_budget_exhausted(self, knot, monkeypatch):
        monkeypatch.setattr(energy, "REFINE_STEPS", 3)
        with pytest.raises(RuntimeError, match="did not converge"):
            thickness_and_ropelength(knot, 64)


class TestProxy:
    def test_circle_closed_form(self):
        # proxy on the exact circle interpolant collapses to
        # 2 pi (1 - 1/n)^(1/n)
        for n in (16, 64):
            circle, beta = circle_beta(n)
            got = ropelength_proxy(beta, circle.length)
            assert got == pytest.approx(TWO_PI * (1 - 1 / n) ** (1 / n), rel=1e-12)

    def test_gap_decreases(self):
        gaps = []
        for n in (16, 32, 64, 128):
            circle, beta = circle_beta(n)
            gaps.append(abs(ropelength_proxy(beta, circle.length) - TWO_PI))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_log_space_matches_direct(self):
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
        # at n <= LOG_SPACE_POWER the plain sum of x^n lam lam overflows or
        # underflows at these radii; the log-space walk keeps the proxy
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

