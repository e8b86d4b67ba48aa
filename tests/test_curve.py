import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from biarcs import curve as curve_module
from biarcs.curve import (
    Mollifier,
    analytic_curve,
    arclength_reparametrize,
    curve_diagnostics,
    gagliardo_seminorm,
    make_partition,
    mollify,
    preset_curve,
    standard_mollifier,
    tangent_modulus,
)

TWO_PI = 2 * math.pi
# composite-Simpson oracle on the exact speed sqrt(4 sin^2 + cos^2), 2^16 cells
ELLIPSE_2_1_LENGTH = 9.688448220547677
# 2 pi * quad of 4 sin^2(u/2)/u^2 over (-pi, pi)
CIRCLE_TANGENT_SEMINORM = 30.544254699350837


def dense_seminorm(f, s, rho, grid, period):
    """Reference for `gagliardo_seminorm`: the whole (grid, grid) integrand
    at once, parameter distances as float periodic distances, and the band
    correction read off the matrix."""
    h = period / grid
    x = (np.arange(grid) + 0.5) * h
    vals = np.asarray(f(x), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    diff = np.linalg.norm(vals[:, None, :] - vals[None, :, :], axis=-1)
    dist = np.abs(x[:, None] - x[None, :]) % period
    dist = np.minimum(dist, period - dist)
    idx = np.arange(grid)
    sep = np.abs(idx[:, None] - idx[None, :])
    off = np.minimum(sep, grid - sep) >= 2
    integrand = np.zeros_like(diff)
    integrand[off] = diff[off] ** rho / dist[off] ** (1.0 + s * rho)
    main = float(integrand.sum()) * h * h
    beta = rho * (1.0 - s) - 1.0
    band = 0.5 * (integrand[idx, (idx + 2) % grid] + integrand[idx, (idx - 2) % grid])
    amp = band / (2.0 * h) ** beta
    width = 1.5 * h
    return main + float(amp.sum()) * h * 2.0 * width ** (beta + 1.0) / (beta + 1.0)


def dense_bilipschitz(curve, grid):
    """Reference for `curve_diagnostics(...).bilipschitz_constant`: the
    largest ratio of float periodic parameter distance to chord over the
    whole (grid, grid) matrix."""
    L = curve.length
    s = np.linspace(0.0, L, grid, endpoint=False)
    pos = curve.position(s)
    chord = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    par = np.abs(s[:, None] - s[None, :]) % L
    par = np.minimum(par, L - par)
    off = ~np.eye(grid, dtype=bool)
    return float((par[off] / chord[off]).max())


def base_curves():
    return {
        "circle": preset_curve("circle", [1.0]),
        "ellipse": arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0])),
        "torus_knot": arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2.0, 0.5])),
    }


def direct_mollify(curve, eps, s, quad_points=257, samples=2048):
    """Reference for `mollify` at arclengths s, written out term by term:
    the convolution sum_k w_k gamma(x - eps xi_k) evaluated at every node,
    a per-cell Simpson length table, the rescale to the original length,
    and the cubic Hermite inverse of the table with slopes 1/speed at its
    nodes. Returns position, unit tangent and second derivative."""
    m = standard_mollifier()
    xi = np.linspace(-1.0, 1.0, quad_points)
    trap = np.full(quad_points, 2.0 / (quad_points - 1))
    trap[[0, -1]] *= 0.5
    w = trap * m.profile(xi)
    w /= w.sum()
    dw = trap * m.dprofile(xi) / eps
    dw -= dw.mean()

    def conv(f, weights, x):
        return np.einsum("...kd,k->...d", f(x[..., None] - eps * xi), weights)

    L = curve.length
    x = np.linspace(0.0, L, samples + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    sx, sm = (np.linalg.norm(conv(curve.derivative, w, t), axis=-1) for t in (x, mid))
    cum = np.concatenate([[0.0], np.cumsum(L / samples / 6.0 * (sx[:-1] + 4.0 * sm + sx[1:]))])
    scale = L / cum[-1]
    cum, slope = scale * cum, 1.0 / (scale * sx)
    k = np.clip(np.searchsorted(cum, np.mod(s, L), side="right") - 1, 0, samples - 1)
    h = cum[k + 1] - cum[k]
    r = (np.mod(s, L) - cum[k]) / h
    u = (
        (1 + 2 * r) * (1 - r) ** 2 * x[k]
        + r * (1 - r) ** 2 * h * slope[k]
        + r * r * (3 - 2 * r) * x[k + 1]
        - r * r * (1 - r) * h * slope[k + 1]
    )
    d = scale * conv(curve.derivative, w, u)
    dd = scale * conv(curve.derivative, dw, u)
    speed2 = np.sum(d * d, axis=-1, keepdims=True)
    t = d / np.sqrt(speed2)
    second = (dd - np.sum(t * dd, axis=-1, keepdims=True) * t) / speed2
    return scale * conv(curve.position, w, u), t, second


def gauss_newton_inverse(raw, s, cells=1024, order=10):
    """Independent arclength inverse: arclength by composite Gauss-Legendre
    quadrature on the exact speed, then Newton on s(u) = s from a linear
    guess."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = raw.period / cells
    edges = np.arange(cells + 1) * h

    def length(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        speed = np.linalg.norm(raw.derivative(mid[..., None] + half[..., None] * nodes), axis=-1)
        return half * (speed @ weights)

    cum = np.concatenate([[0.0], np.cumsum(length(edges[:-1], edges[1:]))])
    u = np.interp(s, cum, edges)
    for _ in range(8):
        k = np.clip((u // h).astype(int), 0, cells - 1)
        u = u - (cum[k] + length(edges[k], u) - s) / np.linalg.norm(raw.derivative(u), axis=-1)
    return u


class TestPresets:
    def test_circle(self):
        c = preset_curve("circle", [1.0])
        assert c.length == pytest.approx(TWO_PI, rel=1e-12)
        s = np.linspace(0, c.length, 100)
        assert np.allclose(np.linalg.norm(c.derivative(s), axis=-1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(c.second_derivative(s), axis=-1), 1.0, atol=1e-12)
        assert np.allclose(c.position(s + c.period), c.position(s), atol=1e-12)

    def test_ellipse_length(self):
        c = preset_curve("ellipse", [2.0, 1.0])
        assert c.length == pytest.approx(ELLIPSE_2_1_LENGTH, abs=1e-8)

    def test_torus_knot_closed_and_embedded(self):
        c = preset_curve("torus_knot", [2, 3, 2.0, 0.5])
        assert np.allclose(c.position(0.0), c.position(c.period), atol=1e-12)
        u = np.linspace(0, c.period, 1500, endpoint=False)
        pts = c.position(u)
        gap = np.abs(u[:, None] - u[None, :]) % c.period
        gap = np.minimum(gap, c.period - gap)
        chord = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        assert chord[gap > 0.3].min() > 0.5

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            preset_curve("helix", [1.0])
        with pytest.raises(ValueError):
            preset_curve("circle", [-1.0])
        with pytest.raises(ValueError):
            preset_curve("torus_knot", [2, 3, 0.5, 2.0])


class TestArclength:
    def test_nonuniform_circle(self):
        # unit circle traversed with speed 1 + 0.3 cos(u)
        def phi(u):
            u = np.asarray(u, dtype=float)
            return u + 0.3 * np.sin(u)

        def position(u):
            a = phi(u)
            return np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            a = phi(u)
            rate = 1.0 + 0.3 * np.cos(u)
            return np.stack([-np.sin(a) * rate, np.cos(a) * rate, np.zeros_like(a)], axis=-1)

        raw = analytic_curve(position, derivative)
        unit = arclength_reparametrize(raw)
        assert unit.is_arclength
        assert unit.length == pytest.approx(TWO_PI, abs=1e-8)
        s = np.linspace(0, unit.length, 1000, endpoint=False)
        assert np.allclose(np.linalg.norm(unit.derivative(s), axis=-1), 1.0, atol=1e-8)
        assert np.allclose(np.linalg.norm(unit.position(s), axis=-1), 1.0, atol=1e-8)

    def test_idempotent(self):
        unit = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        again = arclength_reparametrize(unit)
        s = np.linspace(0, unit.length, 64)
        assert np.allclose(again.position(s), unit.position(s), atol=1e-10)

    def test_ellipse_length_preserved(self):
        unit = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        assert unit.length == pytest.approx(ELLIPSE_2_1_LENGTH, abs=1e-8)
        s = np.linspace(0, unit.length, 500)
        assert np.allclose(np.linalg.norm(unit.derivative(s), axis=-1), 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "name, params", [("ellipse", [2.0, 1.0]), ("torus_knot", [2, 3, 2.0, 0.5])]
    )
    def test_matches_independent_inverse(self, name, params):
        raw = preset_curve(name, params)
        seen = []  # the parameters the reparametrized curve asks the raw one for
        spy = replace(raw, position=lambda u: seen.append(np.asarray(u)) or raw.position(u))
        unit = arclength_reparametrize(spy)
        s = (np.arange(1000) + 0.37) * (unit.length / 1000)
        unit.position(s)
        assert np.abs(seen[-1] - gauss_newton_inverse(raw, s)).max() <= 1e-10

    def test_vanishing_speed_rejected(self):
        def position(u):
            u = np.asarray(u, dtype=float)
            return np.stack([np.cos(u) ** 3, np.sin(u) ** 3, np.zeros_like(u)], axis=-1)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            return np.stack(
                [-3 * np.cos(u) ** 2 * np.sin(u), 3 * np.sin(u) ** 2 * np.cos(u), np.zeros_like(u)],
                axis=-1,
            )

        with pytest.raises(ValueError):
            analytic_curve(position, derivative)


class TestPartition:
    def test_uniform(self):
        p = make_partition(TWO_PI, 8)
        assert np.allclose(p.samples, np.arange(9) * math.pi / 4)
        assert p.max_gap == pytest.approx(p.min_gap)

    def test_jitter_bounds(self):
        p = make_partition(1.0, 16, "jitter:0.2", seed=7)
        assert p.n == 16
        assert p.min_gap >= 0.6 / 16 - 1e-12
        assert p.max_gap <= 1.4 / 16 + 1e-12

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            make_partition(1.0, 2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            make_partition(1.0, 8, "jitter:0.5")
        with pytest.raises(ValueError):
            make_partition(1.0, 8, "random")

    def test_distribution_bounds_hold(self):
        for seed in range(20):
            p = make_partition(3.3, 32, "jitter:0.3", seed=seed)
            lo, hi = 0.4 * 3.3 / 32, 1.6 * 3.3 / 32
            assert p.min_gap >= lo - 1e-12 and p.max_gap <= hi + 1e-12
            assert p.max_gap <= 3.3 / 2


class TestMollify:
    def test_circle_reproduced(self):
        circle = preset_curve("circle", [1.0])
        for eps in (0.3, 0.8):
            smooth = mollify(circle, eps)
            s = np.linspace(0, TWO_PI, 200, endpoint=False)
            pos = smooth.position(s)
            assert np.abs(np.linalg.norm(pos, axis=-1) - 1.0).max() < 1e-7
            # even profile: no parameter shift, so the curves match pointwise
            assert np.abs(pos - circle.position(s)).max() < 1e-7
            assert smooth.length == pytest.approx(TWO_PI, rel=1e-8)

    def test_c1_error_decreases(self):
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
        s = np.linspace(0, ellipse.length, 256, endpoint=False)
        errs = []
        for k in (4, 8):
            smooth = mollify(ellipse, 1.0 / k)
            err = np.linalg.norm(smooth.position(s) - ellipse.position(s), axis=-1).max()
            err += np.linalg.norm(smooth.derivative(s) - ellipse.derivative(s), axis=-1).max()
            errs.append(err)
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("name", ["circle", "ellipse", "torus_knot"])
    def test_length_preserved(self, name):
        curve = base_curves()[name]
        for eps in (1 / 4, 1 / 32):
            smooth = mollify(curve, eps)
            assert abs(smooth.length - curve.length) <= 1e-12 * curve.length

    @pytest.mark.parametrize("name", ["ellipse", "torus_knot"])
    @pytest.mark.parametrize("eps", [1 / 4, 1 / 32])
    def test_matches_direct_quadrature(self, name, eps):
        curve = base_curves()[name]
        s = np.linspace(0.0, curve.length, 64, endpoint=False) + 0.0123
        pos, tan, second = direct_mollify(curve, eps, s)
        smooth = mollify(curve, eps)
        assert np.abs(smooth.position(s) - pos).max() <= 1e-9
        assert np.abs(smooth.derivative(s) - tan).max() <= 1e-9
        assert np.abs(smooth.second_derivative(s) - second).max() <= 1e-7 * np.abs(second).max()

    def test_preconditions(self):
        circle = preset_curve("circle", [1.0])
        with pytest.raises(ValueError):
            mollify(circle, circle.length / 4.0)
        with pytest.raises(ValueError):
            mollify(preset_curve("ellipse", [2.0, 1.0]), 0.1)

    def test_mollifier_validation(self):
        with pytest.raises(ValueError):
            Mollifier(profile=lambda x: np.ones_like(np.asarray(x)))  # mass 2
        m = standard_mollifier()
        x = np.linspace(-1, 1, 2001)
        assert np.all(np.asarray(m.profile(x)) >= 0)


class TestSeminorm:
    def test_constant_is_zero(self):
        f = lambda x: np.zeros(np.shape(x) + (3,)) + np.array([1.0, 2.0, 3.0])
        assert gagliardo_seminorm(f, 0.5, 2.0, 128, TWO_PI) == 0.0

    def test_circle_tangent_value(self):
        circle = preset_curve("circle", [1.0])
        got = gagliardo_seminorm(circle.derivative, 0.5, 2.0, 256, TWO_PI)
        assert got == pytest.approx(CIRCLE_TANGENT_SEMINORM, rel=0.01)

    def test_grid_stability(self):
        circle = preset_curve("circle", [1.0])
        a = gagliardo_seminorm(circle.derivative, 0.5, 2.0, 256, TWO_PI)
        b = gagliardo_seminorm(circle.derivative, 0.5, 2.0, 512, TWO_PI)
        assert abs(a - b) / b < 0.01

    def test_guards(self):
        circle = preset_curve("circle", [1.0])
        with pytest.raises(ValueError):
            gagliardo_seminorm(circle.derivative, 0.5, 2.0, 32, TWO_PI)
        with pytest.raises(ValueError):
            gagliardo_seminorm(lambda x: np.full(np.shape(x) + (3,), np.nan), 0.5, 2.0, 64, TWO_PI)


class TestDiagnostics:
    def test_unit_circle(self):
        d = curve_diagnostics(preset_curve("circle", [1.0]), grid=256)
        # parameter/chord ratio is maximized by antipodal pairs: pi / 2
        assert d.bilipschitz_constant == pytest.approx(math.pi / 2, rel=1e-6)
        assert d.max_curvature == pytest.approx(1.0, rel=1e-9)
        assert np.all(np.diff(d.modulus_samples[:, 1]) >= 0)

    def test_modulus_matches_circle(self):
        circle = preset_curve("circle", [1.0])
        # |t(s+h) - t(s)| = 2 sin(h/2) on the unit circle
        for h in (0.5, 1.0):
            assert tangent_modulus(circle, h) == pytest.approx(2 * math.sin(h / 2), rel=1e-6)

    def test_self_intersection_detected(self):
        def position(u):
            u = np.asarray(u, dtype=float)
            return np.stack([np.sin(2 * u), np.sin(u), np.zeros_like(u)], axis=-1)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            return np.stack([2 * np.cos(2 * u), np.cos(u), np.zeros_like(u)], axis=-1)

        eight = arclength_reparametrize(analytic_curve(position, derivative))
        with pytest.raises(ValueError):
            curve_diagnostics(eight, grid=512)


@pytest.fixture(scope="module")
def smoothed_knot():
    knot = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2.0, 0.5]))
    return knot, mollify(knot, 1.0 / 8.0)


class TestTiledGridSums:
    """The seminorm and the diagnostics walk row tiles of the grid; they
    match the dense quadrature and stay small in memory."""

    @pytest.mark.parametrize("integrand", ["tangent_difference", "scalar"])
    def test_seminorm_matches_dense(self, smoothed_knot, monkeypatch, integrand):
        knot, smooth = smoothed_knot
        if integrand == "scalar":
            f = lambda x: np.cos(3.0 * x) + 0.1 * np.sin(7.0 * x)
        else:
            f = lambda x: smooth.derivative(x) - knot.derivative(x)
        expected = dense_seminorm(f, 2.0 / 3.0, 3.0, 256, knot.length)
        # three rows per tile, and a last tile of one row
        monkeypatch.setattr(curve_module, "PAIR_TILE", 3 * 256 + 1)
        assert len(list(curve_module._row_tiles(256))) == 86
        got = gagliardo_seminorm(f, 2.0 / 3.0, 3.0, 256, knot.length)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_bilipschitz_matches_dense(self, smoothed_knot, monkeypatch):
        _, smooth = smoothed_knot
        expected = dense_bilipschitz(smooth, 256)
        monkeypatch.setattr(curve_module, "PAIR_TILE", 3 * 256 + 1)
        got = curve_diagnostics(smooth, grid=256).bilipschitz_constant
        assert got == pytest.approx(expected, rel=1e-13)

    def test_memory_bounded_at_grid_2048(self, smoothed_knot):
        # the dense (grid, grid, 3) temporaries need ~270 MB here
        knot, smooth = smoothed_knot
        for run in (
            lambda: gagliardo_seminorm(
                lambda x: smooth.derivative(x) - knot.derivative(x), 2.0 / 3.0, 3.0, 2048, knot.length
            ),
            lambda: curve_diagnostics(smooth, grid=2048),
        ):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 32 * 2**20
