import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_rotation
from hypothesis import given, settings
from hypothesis import strategies as st

from biarcs import curve as curve_module
from biarcs.curve import (
    Partition,
    analytic_curve,
    arclength_reparametrize,
    curve_diagnostics,
    gagliardo_seminorm,
    make_partition,
    mollify,
    preset_curve,
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
    a per-cell Simpson length table, the rescale to the original length
    about the centroid, and the cubic Hermite inverse of the table with
    slopes 1/(scale * speed) from the convolved speed at its nodes. Returns
    position, unit tangent and second derivative."""
    xi = np.linspace(-1.0, 1.0, quad_points)
    trap = np.full(quad_points, 2.0 / (quad_points - 1))
    trap[[0, -1]] *= 0.5
    # the bump exp(-1/(1-x^2)) and its derivative, zero at the end nodes; its
    # mass by the trapezoid rule on 65536 cells
    inner = xi[1:-1]
    bump, dbump = np.zeros(quad_points), np.zeros(quad_points)
    bump[1:-1] = np.exp(-1.0 / (1.0 - inner**2))
    dbump[1:-1] = bump[1:-1] * -2.0 * inner / (1.0 - inner**2) ** 2
    fine = np.linspace(-1.0, 1.0, 65537)[1:-1]
    mass = np.exp(-1.0 / (1.0 - fine**2)).sum() * (2.0 / 65536)
    w = trap * bump / mass
    w /= w.sum()
    dw = trap * dbump / mass / eps
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
    # the mean over a uniform grid of 2 * samples nodes: the centroid
    center = curve.position(np.arange(2 * samples) * (L / (2 * samples))).mean(axis=0)
    return center + scale * (conv(curve.position, w, u) - center), t, second


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


def closed_form_preset(name, params, u):
    """Position, derivative and second derivative of a preset by the
    formulas the coefficient tables stand for."""
    zero = np.zeros_like(u)
    if name == "circle":
        (radius,) = params
        c, s = np.cos(u / radius), np.sin(u / radius)
        return (
            radius * np.stack([c, s, zero], axis=-1),
            np.stack([-s, c, zero], axis=-1),
            np.stack([-c, -s, zero], axis=-1) / radius,
        )
    if name == "ellipse":
        a, b = params
        c, s = np.cos(u), np.sin(u)
        return (
            np.stack([a * c, b * s, zero], axis=-1),
            np.stack([-a * s, b * c, zero], axis=-1),
            np.stack([-a * c, -b * s, zero], axis=-1),
        )
    p, q, big_r, small_r = params
    cp, sp, cq, sq = np.cos(p * u), np.sin(p * u), np.cos(q * u), np.sin(q * u)
    w, dw, ddw = big_r + small_r * cq, -small_r * q * sq, -small_r * q * q * cq
    return (
        np.stack([w * cp, w * sp, small_r * sq], axis=-1),
        np.stack([dw * cp - p * w * sp, dw * sp + p * w * cp, small_r * q * cq], axis=-1),
        np.stack(
            [
                ddw * cp - 2 * p * dw * sp - p * p * w * cp,
                ddw * sp + 2 * p * dw * cp - p * p * w * sp,
                -small_r * q * q * sq,
            ],
            axis=-1,
        ),
    )


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
        for name, params in [
            ("circle", [math.inf]),
            ("circle", [math.nan]),
            ("ellipse", [2.0, -math.inf]),
            ("torus_knot", [math.inf, 3, 2.0, 0.5]),
            ("torus_knot", [2, 3, math.inf, 0.5]),
            ("torus_knot", [2, math.nan, 2.0, 0.5]),
        ]:
            with pytest.raises(ValueError, match=f"^{name} parameters must be finite$"):
                preset_curve(name, params)
        # the winding bound is checked before the coefficient table is made
        for p, q in [(1e300, 3), (2000, 3), (-1021, 3)]:
            with pytest.raises(ValueError, match=r"need \|p\| \+ \|q\| < 1024$"):
                preset_curve("torus_knot", [p, q, 2.0, 0.5])
        assert preset_curve("torus_knot", [-1021, 2, 2.0, 0.5]).length > 0

    @pytest.mark.parametrize(
        "name, params",
        [
            ("circle", [1.0]),
            ("circle", [3.0]),
            ("ellipse", [2.0, 1.0]),
            ("torus_knot", [2, 3, 2.0, 0.5]),
            ("torus_knot", [3, 5, 2.0, 0.5]),
            ("torus_knot", [2, -3, 2.0, 0.5]),
            ("torus_knot", [3, 2, 2.0, 0.5]),
            ("torus_knot", [2, 2, 2.0, 0.5]),
        ],
    )
    def test_matches_the_closed_form(self, name, params):
        curve = preset_curve(name, params)
        u = np.linspace(-1.0, curve.period + 1.0, 997)
        evaluators = (curve.position, curve.derivative, curve.second_derivative)
        for evaluate, want in zip(evaluators, closed_form_preset(name, params, u)):
            got = evaluate(u)
            if name == "ellipse" or params == [1.0]:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_circle_commutes_with_power_of_two_dilation(self, k):
        # (c f) f, never c f^2, and scale-free mode counts keep every bit
        radius = 2.0**k
        unit, circle = preset_curve("circle", [1.0]), preset_curve("circle", [radius])
        s = np.linspace(-1.0, 8.0, 101)
        np.testing.assert_array_equal(circle.arclength_table, radius * unit.arclength_table)
        np.testing.assert_array_equal(circle.position(radius * s), radius * unit.position(s))
        np.testing.assert_array_equal(circle.derivative(radius * s), unit.derivative(s))
        np.testing.assert_array_equal(
            circle.second_derivative(radius * s), unit.second_derivative(s) / radius
        )

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("circle", [], "circle takes 1 parameter R; got 0"),
            ("circle", [1.0, 2.0], "circle takes 1 parameter R; got 2"),
            ("ellipse", [2.0], "ellipse takes 2 parameters a, b; got 1"),
            ("ellipse", [2.0, 1.0, 1.0], "ellipse takes 2 parameters a, b; got 3"),
            ("torus_knot", [2, 3], "torus_knot takes 4 parameters p, q, R, r; got 2"),
            ("torus_knot", [2, 3, 2.0, 0.5, 1.0], "torus_knot takes 4 parameters p, q, R, r; got 5"),
        ],
        ids=["circle-0", "circle-2", "ellipse-1", "ellipse-3", "torus_knot-2", "torus_knot-5"],
    )
    def test_wrong_parameter_count_names_the_preset(self, name, params, message):
        with pytest.raises(ValueError) as exc:
            preset_curve(name, params)
        assert str(exc.value) == message


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

    @pytest.mark.parametrize("nodes", [[0, 1, math.nan, 3], [0, 1, 2, math.inf]])
    def test_non_finite_nodes(self, nodes):
        with pytest.raises(ValueError, match="finite"):
            Partition(nodes)

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

    def test_sweep_matches_one_scale_calls(self):
        # the sweep shares the sampling and the forward FFTs of the base curve
        knot = base_curves()["torus_knot"]
        scales = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
        s = np.linspace(0.0, knot.length, 256, endpoint=False)
        for eps, smooth in zip(scales, curve_module._mollify_sweep(knot, scales)):
            one = mollify(knot, eps)
            for field in ("position", "derivative", "second_derivative"):
                assert np.array_equal(getattr(smooth, field)(s), getattr(one, field)(s))
            assert np.array_equal(smooth.arclength_table, one.arclength_table)

    def test_preconditions(self):
        circle = preset_curve("circle", [1.0])
        with pytest.raises(ValueError):
            mollify(circle, circle.length / 4.0)
        with pytest.raises(ValueError):
            mollify(preset_curve("ellipse", [2.0, 1.0]), 0.1)


def kept_modes_of(curve, scales):
    """The kept mode counts of the (position, tangent, second derivative)
    polynomials of the curve mollified at each of the scales."""
    counts = []
    build = curve_module._trig_polynomial

    def counting(coeffs, period):
        counts.append(curve_module._kept_modes(coeffs))
        return build(coeffs, period)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curve_module, "_trig_polynomial", counting)
        for eps in scales:
            mollify(curve, eps)
    return [tuple(counts[i : i + 3]) for i in range(0, len(counts), 3)]


class TestModeTruncation:
    """A mollified curve keeps its modes up to the last one above
    MODE_FLOOR; past it lie the FFT's rounding and the error of the base
    curve's length table."""

    @pytest.mark.parametrize("name", ["ellipse", "torus_knot"])
    @pytest.mark.parametrize("eps", [1 / 4, 1 / 32])
    def test_matches_untruncated(self, monkeypatch, name, eps):
        # the knot at eps = 1/32 differs most, by 1.7e-13 in position: its
        # dropped modes carry the interpolation error of the base curve's
        # length table
        curve = base_curves()[name]
        s = np.linspace(0.0, curve.length, 4096, endpoint=False) + 0.0123
        smooth = mollify(curve, eps)
        monkeypatch.setattr(curve_module, "MODE_FLOOR", 0.0)
        full = mollify(curve, eps)
        assert np.abs(smooth.position(s) - full.position(s)).max() <= 2e-13
        assert np.abs(smooth.derivative(s) - full.derivative(s)).max() <= 2e-13

    def test_torus_knot_keeps_few_modes(self):
        knot = base_curves()["torus_knot"]
        for counts in kept_modes_of(knot, [1 / 4, 1 / 8, 1 / 16, 1 / 32]):
            assert max(counts) <= 80

    def test_algebraic_decay_keeps_every_mode(self):
        # C^{1,1} curves have algebraically decaying spectra: the floor is
        # relative to the largest mode, not a fixed cap
        rng = np.random.default_rng(0)
        m = np.arange(2049)[:, None]
        phases = np.exp(2j * math.pi * rng.random((2049, 3)))
        assert curve_module._kept_modes(phases * (m + 1.0) ** -3) == 2049
        # a geometric spectrum is cut where it meets the floor: relative to
        # mode 1, mode m has size 2^(1-m), above 5e-15 up to m = 48
        assert curve_module._kept_modes(phases * 0.5**m) == 49
        assert curve_module._kept_modes(np.zeros((5, 3))) == 1


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

    # a period of -1 gave the value of +1 at s = 0.5 and (nan+nanj) at
    # s = 0.4; 0 and inf gave NaN
    @pytest.mark.parametrize(
        "s, period", [(0.5, -1.0), (0.4, -1.0), (0.5, 0.0), (0.5, math.inf), (0.5, math.nan)]
    )
    def test_period_must_be_finite_and_positive(self, s, period):
        with pytest.raises(ValueError, match="period must be finite and positive"):
            gagliardo_seminorm(np.cos, s, 2.0, 64, period)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_rho_must_be_finite(self, rho):
        with pytest.raises(ValueError, match="rho must be finite"):
            gagliardo_seminorm(np.cos, 0.5, rho, 64, 2.0)


class TestDiagnostics:
    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_below_one_rejected(self, grid):
        circle = preset_curve("circle", [1.0])
        with pytest.raises(ValueError, match=f"grid must be at least 1, got {grid}"):
            curve_diagnostics(circle, grid=grid)
        with pytest.raises(ValueError, match=f"grid must be at least 1, got {grid}"):
            tangent_modulus(circle, 0.5, grid=grid)

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

    def test_doubly_traversed_circle_is_not_embedded(self):
        def position(u):
            u = np.asarray(u, dtype=float)
            return np.stack([np.cos(2 * u), np.sin(2 * u), np.zeros_like(u)], axis=-1)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            return np.stack([-2 * np.sin(2 * u), 2 * np.cos(2 * u), np.zeros_like(u)], axis=-1)

        twice = arclength_reparametrize(analytic_curve(position, derivative))
        with pytest.raises(ValueError, match="not embedded"):
            curve_diagnostics(twice, grid=256)


@pytest.fixture(scope="module")
def smoothed_knot():
    knot = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2.0, 0.5]))
    return knot, mollify(knot, 1.0 / 8.0)


# a rotation seed, a translation and a dilation factor
MOTIONS = given(
    seed=st.integers(0, 2**32 - 1),
    shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    factor=st.floats(0.5, 2.0),
)


def moved_and_scaled_knots(seed, shift, factor):
    """The rotation drawn from the seed, and the torus knot rotated and
    shifted by it, and dilated by the factor, both by arclength."""
    raw = preset_curve("torus_knot", [2, 3, 2.0, 0.5])
    rot = random_rotation(np.random.default_rng(seed))
    moved = arclength_reparametrize(
        analytic_curve(
            lambda u: raw.position(u) @ rot.T + shift, lambda u: raw.derivative(u) @ rot.T
        )
    )
    scaled = arclength_reparametrize(
        analytic_curve(lambda u: factor * raw.position(u), lambda u: factor * raw.derivative(u))
    )
    return rot, moved, scaled


class TestMollifyInvariance:
    """Mollification commutes with rigid motions and dilations: the
    convolution and the length rescale are linear, and the length table's
    grid and the kernel nodes scale with the curve."""

    @settings(max_examples=10, deadline=None)
    @MOTIONS
    def test_rigid_motion_and_dilation(self, smoothed_knot, seed, shift, factor):
        knot, smooth = smoothed_knot
        shift = np.array(shift)
        rot, moved, scaled = moved_and_scaled_knots(seed, shift, factor)
        s = np.linspace(0.0, knot.length, 64, endpoint=False) + 0.0123
        pos, tan = smooth.position(s), smooth.derivative(s)

        smooth_moved = mollify(moved, 1.0 / 8.0)
        assert np.abs(smooth_moved.position(s) - (pos @ rot.T + shift)).max() <= 1e-9
        assert np.abs(smooth_moved.derivative(s) - tan @ rot.T).max() <= 1e-9

        smooth_scaled = mollify(scaled, factor / 8.0)
        assert np.abs(smooth_scaled.position(factor * s) - factor * pos).max() <= 1e-9
        assert np.abs(smooth_scaled.derivative(factor * s) - tan).max() <= 1e-9

    @settings(max_examples=5, deadline=None)
    @MOTIONS
    def test_kept_modes_unchanged_by_rigid_motion_and_dilation(
        self, smoothed_knot, seed, shift, factor
    ):
        knot, _ = smoothed_knot
        _, moved, scaled = moved_and_scaled_knots(seed, np.array(shift), factor)
        (base,) = kept_modes_of(knot, [1.0 / 8.0])
        (after_motion,) = kept_modes_of(moved, [1.0 / 8.0])
        (after_dilation,) = kept_modes_of(scaled, [factor / 8.0])
        # position and tangent; the second derivative is cut from the tangent's
        # kept modes
        assert after_motion[:2] == base[:2] and after_dilation[:2] == base[:2]

    @pytest.mark.parametrize("k", [-560, 520])
    def test_power_of_two_dilation_is_bit_exact(self, k):
        # the norms that pick the kept modes square coefficients of size 2^k
        radius = 2.0**k
        unit, circle = preset_curve("circle", [1.0]), preset_curve("circle", [radius])
        smooth, scaled = mollify(unit, unit.length / 64), mollify(circle, circle.length / 64)
        s = np.linspace(0.0, unit.length, 97) + 0.0123
        np.testing.assert_array_equal(scaled.position(radius * s), radius * smooth.position(s))
        np.testing.assert_array_equal(scaled.derivative(radius * s), smooth.derivative(s))
        np.testing.assert_array_equal(
            scaled.second_derivative(radius * s), smooth.second_derivative(s) / radius
        )


class TestTiledGridSums:
    """The seminorm and the diagnostics walk the triangle tiles of the grid,
    each pair once; they match the dense quadrature and stay small in
    memory."""

    @pytest.mark.parametrize("integrand", ["tangent_difference", "scalar"])
    def test_seminorm_matches_dense(self, smoothed_knot, monkeypatch, integrand):
        knot, smooth = smoothed_knot
        if integrand == "scalar":
            f = lambda x: np.cos(3.0 * x) + 0.1 * np.sin(7.0 * x)
        else:
            f = lambda x: smooth.derivative(x) - knot.derivative(x)
        expected = dense_seminorm(f, 2.0 / 3.0, 3.0, 256, knot.length)
        # 49 triangle tiles, from three rows against every column to 24
        # rows against the last 24 columns
        monkeypatch.setattr(curve_module, "PAIR_TILE", 3 * 256 + 1)
        spans = [hi - lo for lo, hi, _ in curve_module._triangle_tiles(256)]
        assert (len(spans), spans[0], spans[-1]) == (49, 3, 24)
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

    def test_mollified_evaluation_memory(self):
        # all 2049 modes took 5.8 MB here: a few dozen are significant
        knot = base_curves()["torus_knot"]
        smooth = mollify(knot, 1.0 / 32.0)
        s = np.linspace(0.0, knot.length, 4096, endpoint=False)
        for evaluate in (smooth.position, smooth.derivative):
            tracemalloc.start()
            try:
                evaluate(s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20
