"""Closed parametric curves: presets, arclength reparametrization,
partitions, mollification, Gagliardo seminorms, and diagnostics.

All position/derivative callables are periodic in their parameter and
vectorized: they accept scalars or arrays of shape (...,) and return
arrays of shape (..., 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

DEFAULT_GRID_1D = 2048
# points per row block when a mollified curve is evaluated
TRIG_BLOCK = 1024
# point pairs per row tile of every double sum: a tile's temporaries take a
# few MB and stay cache-resident whatever the number of points
PAIR_TILE = 1 << 15


@dataclass(frozen=True)
class CurveSpec:
    """A closed curve with derivatives and a parameter-to-arclength table.

    ``arclength_table`` has shape (m, 2) with columns (parameter, arclength),
    both increasing from 0; the last row gives (period, length). When
    ``is_arclength`` is set the two columns coincide and the derivative is a
    unit tangent field.
    """

    period: float
    position: Callable
    derivative: Callable
    second_derivative: Optional[Callable]
    arclength_table: np.ndarray
    is_arclength: bool
    name: str = ""

    @property
    def length(self) -> float:
        return float(self.arclength_table[-1, 1])


@dataclass(frozen=True)
class Partition:
    """Nodes 0 = s_0 < s_1 < ... < s_n = L of the periodic domain."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1 or s.size < 3:
            raise ValueError("partition needs at least three nodes")
        if s[0] != 0.0 or np.any(np.diff(s) <= 0.0):
            raise ValueError("partition nodes must be strictly increasing from 0")

    @property
    def n(self) -> int:
        return self.samples.size - 1

    @property
    def period(self) -> float:
        return float(self.samples[-1])

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.samples)

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max())

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min())


@dataclass(frozen=True)
class Mollifier:
    """Non-negative averaging profile on [-1, 1] with unit integral.

    ``dprofile`` is the profile's derivative; when provided, mollified
    curves expose a second derivative.
    """

    profile: Callable
    dprofile: Optional[Callable] = None

    def __post_init__(self):
        x = np.linspace(-1.0, 1.0, 4097)
        vals = np.asarray(self.profile(x), dtype=float)
        if np.any(vals < -1e-14):
            raise ValueError("mollifier profile must be non-negative")
        mass = _simpson(vals, x[1] - x[0])
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"mollifier profile must integrate to 1, got {mass!r}")


_BUMP_NORM = None


def _bump_normalization() -> float:
    global _BUMP_NORM
    if _BUMP_NORM is None:
        x = np.linspace(-1.0, 1.0, 65537)
        _BUMP_NORM = _simpson(_raw_bump(x), x[1] - x[0])
    return _BUMP_NORM


def _raw_bump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def standard_mollifier() -> Mollifier:
    """The usual smooth bump exp(-1/(1-x^2)), normalized to unit mass."""
    z = _bump_normalization()

    def profile(x):
        return _raw_bump(x) / z

    def dprofile(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        om = 1.0 - xi * xi
        out[inside] = np.exp(-1.0 / om) * (-2.0 * xi / (om * om)) / z
        return out

    return Mollifier(profile=profile, dprofile=dprofile)


def _simpson(vals: np.ndarray, h: float) -> float:
    if vals.size % 2 == 0:
        raise ValueError("simpson needs an odd number of samples")
    return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()))


def _cumulative_speed(speed_x: np.ndarray, speed_m: np.ndarray, period: float) -> np.ndarray:
    """Cumulative arclength on a uniform grid via per-cell Simpson, from the
    speed at the grid nodes (both ends included) and at the cell midpoints."""
    vmin = min(speed_x.min(), speed_m.min())
    if vmin <= 1e-12 * max(speed_x.max(), 1.0):
        raise ValueError("curve speed vanishes on the sample grid")
    h = period / speed_m.size
    seg = h / 6.0 * (speed_x[:-1] + 4.0 * speed_m + speed_x[1:])
    return np.concatenate([[0.0], np.cumsum(seg)])


def arclength_reparametrize(raw: CurveSpec) -> CurveSpec:
    """Unit-speed reparametrization with the same image and length.

    Inverts the curve's own parameter-to-arclength table by cubic Hermite
    interpolation with the exact slopes du/ds = 1/|gamma'(u)| at the table
    nodes, evaluated once here; tangents are taken from the exact
    derivative and renormalized, so they are unit to machine precision.
    """
    if raw.is_arclength:
        return raw
    x, cum = raw.arclength_table[:, 0], raw.arclength_table[:, 1]
    total = float(cum[-1])
    slope = 1.0 / np.linalg.norm(raw.derivative(x), axis=-1)

    def to_param(s):
        s = np.mod(s, total)
        k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, cum.size - 2)
        h = cum[k + 1] - cum[k]
        t = (s - cum[k]) / h
        t2, t3 = t * t, t * t * t
        return (
            (2.0 * t3 - 3.0 * t2 + 1.0) * x[k]
            + (t3 - 2.0 * t2 + t) * h * slope[k]
            + (3.0 * t2 - 2.0 * t3) * x[k + 1]
            + (t3 - t2) * h * slope[k + 1]
        )

    def position(s):
        return raw.position(to_param(s))

    def derivative(s):
        d = raw.derivative(to_param(s))
        return d / np.linalg.norm(d, axis=-1, keepdims=True)

    second_derivative = None
    if raw.second_derivative is not None:
        raw_second = raw.second_derivative

        def second_derivative(s):
            u = to_param(s)
            d = raw.derivative(u)
            dd = raw_second(u)
            speed2 = np.sum(d * d, axis=-1, keepdims=True)
            t = d / np.sqrt(speed2)
            return (dd - np.sum(t * dd, axis=-1, keepdims=True) * t) / speed2

    table = np.column_stack([cum, cum])
    return CurveSpec(total, position, derivative, second_derivative, table, True, raw.name)


def preset_curve(name: str, params) -> CurveSpec:
    """Analytic closed test curves: circle(R), ellipse(a, b),
    torus_knot(p, q, R, r)."""
    params = [float(p) for p in params]
    if name == "circle":
        (radius,) = params
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        length = 2.0 * math.pi * radius

        def position(s):
            phi = np.asarray(s, dtype=float) / radius
            return radius * np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)

        def derivative(s):
            phi = np.asarray(s, dtype=float) / radius
            return np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)

        def second_derivative(s):
            phi = np.asarray(s, dtype=float) / radius
            return (
                np.stack([-np.cos(phi), -np.sin(phi), np.zeros_like(phi)], axis=-1) / radius
            )

        table = np.column_stack([np.linspace(0, length, 33)] * 2)
        return CurveSpec(length, position, derivative, second_derivative, table, True, "circle")

    if name == "ellipse":
        a, b = params
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semi-axes must be positive")

        def position(u):
            u = np.asarray(u, dtype=float)
            return np.stack([a * np.cos(u), b * np.sin(u), np.zeros_like(u)], axis=-1)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            return np.stack([-a * np.sin(u), b * np.cos(u), np.zeros_like(u)], axis=-1)

        def second_derivative(u):
            u = np.asarray(u, dtype=float)
            return np.stack([-a * np.cos(u), -b * np.sin(u), np.zeros_like(u)], axis=-1)

        spec = CurveSpec(
            2 * math.pi, position, derivative, second_derivative, None, False, "ellipse"
        )
        return _with_length_table(spec)

    if name == "torus_knot":
        p, q, big_r, small_r = params
        if big_r <= 0 or small_r <= 0 or big_r <= small_r:
            raise ValueError("torus knot needs R > r > 0")
        if p != int(p) or q != int(q) or int(p) == 0 or int(q) == 0:
            raise ValueError("torus knot winding numbers must be nonzero integers")

        def position(u):
            u = np.asarray(u, dtype=float)
            w = big_r + small_r * np.cos(q * u)
            return np.stack(
                [w * np.cos(p * u), w * np.sin(p * u), small_r * np.sin(q * u)], axis=-1
            )

        def derivative(u):
            u = np.asarray(u, dtype=float)
            w = big_r + small_r * np.cos(q * u)
            dw = -small_r * q * np.sin(q * u)
            return np.stack(
                [
                    dw * np.cos(p * u) - p * w * np.sin(p * u),
                    dw * np.sin(p * u) + p * w * np.cos(p * u),
                    small_r * q * np.cos(q * u),
                ],
                axis=-1,
            )

        def second_derivative(u):
            u = np.asarray(u, dtype=float)
            w = big_r + small_r * np.cos(q * u)
            dw = -small_r * q * np.sin(q * u)
            ddw = -small_r * q * q * np.cos(q * u)
            return np.stack(
                [
                    ddw * np.cos(p * u) - 2 * p * dw * np.sin(p * u) - p * p * w * np.cos(p * u),
                    ddw * np.sin(p * u) + 2 * p * dw * np.cos(p * u) - p * p * w * np.sin(p * u),
                    -small_r * q * q * np.sin(q * u),
                ],
                axis=-1,
            )

        spec = CurveSpec(
            2 * math.pi, position, derivative, second_derivative, None, False, "torus_knot"
        )
        return _with_length_table(spec)

    raise ValueError(f"unknown curve preset {name!r}")


def _with_length_table(spec: CurveSpec, samples: int = DEFAULT_GRID_1D) -> CurveSpec:
    x = np.linspace(0.0, spec.period, samples + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    speed_x, speed_m = (np.linalg.norm(spec.derivative(t), axis=-1) for t in (x, mid))
    table = np.column_stack([x, _cumulative_speed(speed_x, speed_m, spec.period)])
    return replace(spec, arclength_table=table)


def analytic_curve(
    position: Callable,
    derivative: Callable,
    second_derivative: Optional[Callable] = None,
    period: float = 2 * math.pi,
    name: str = "custom",
    samples: int = DEFAULT_GRID_1D,
) -> CurveSpec:
    """Wrap analytic position/derivative callables into a CurveSpec with a
    computed arclength table."""
    spec = CurveSpec(period, position, derivative, second_derivative, None, False, name)
    return _with_length_table(spec, samples)


def make_partition(L: float, n: int, mode: str = "uniform", seed: int = 0) -> Partition:
    """Partition of [0, L] into n cells, uniform or with jittered nodes.

    ``mode`` is "uniform" or "jitter:rho" with rho in [0, 0.4); jittering
    moves interior nodes by at most rho*L/n, which keeps every gap within
    [(1-2 rho) L/n, (1+2 rho) L/n].
    """
    if n < 4:
        raise ValueError("partition needs n >= 4")
    if mode == "uniform":
        rho = 0.0
    elif mode.startswith("jitter:"):
        rho = float(mode[len("jitter:") :])
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    if not 0.0 <= rho < 0.4:
        raise ValueError("jitter amplitude must be in [0, 0.4)")
    base = np.linspace(0.0, L, n + 1)
    if rho == 0.0:
        return Partition(base)
    rng = np.random.default_rng(seed)
    lo, hi = (1.0 - 2.0 * rho) * L / n, (1.0 + 2.0 * rho) * L / n
    for _ in range(64):
        nodes = base.copy()
        nodes[1:-1] += rng.uniform(-rho, rho, size=n - 1) * (L / n)
        gaps = np.diff(nodes)
        if gaps.min() >= lo - 1e-12 and gaps.max() <= hi + 1e-12 and gaps.max() <= L / 2:
            return Partition(nodes)
    raise ValueError("could not draw a partition within the distribution bounds")


def _mode_factors(phase, modes: int):
    """(high, low) with e^(i m phase[p]) = high[p, a] * low[p, b] for every
    mode m = a B + b < modes, B about sqrt(modes): about 2 sqrt(modes) exps
    per phase instead of one per mode."""
    width = math.isqrt(modes - 1) + 1
    phase = 1j * np.reshape(phase, (-1, 1))
    return np.exp(phase * (width * np.arange(-(-modes // width)))), np.exp(phase * np.arange(width))


def _trig_polynomial(coeffs: np.ndarray, period: float) -> Callable:
    """Evaluator of Re sum_m coeffs[m] exp(2 pi i m x / period) for complex
    coefficients of shape (modes, 3), at points x of any shape. Points go
    in row blocks, so temporaries stay O(TRIG_BLOCK * sqrt(modes))."""
    modes = coeffs.shape[0]
    count, width = (f.shape[1] for f in _mode_factors(0.0, modes))
    padded = np.pad(coeffs, ((0, count * width - modes), (0, 0)))
    # row b, column (a, d): coefficient of mode a B + b in coordinate d
    table = padded.reshape(count, width, 3).transpose(1, 0, 2).reshape(width, count * 3)
    omega = 2.0 * math.pi / period

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        flat, out = x.ravel(), np.empty((x.size, 3))
        for lo in range(0, flat.size, TRIG_BLOCK):
            high, low = _mode_factors(omega * flat[lo : lo + TRIG_BLOCK], modes)
            inner = (low @ table).reshape(-1, count, 3)
            out[lo : lo + TRIG_BLOCK] = np.einsum("pa,pad->pd", high, inner).real
        return out.reshape(x.shape + (3,))

    return evaluate


def mollify(
    curve: CurveSpec,
    eps: float,
    mollifier: Optional[Mollifier] = None,
    quad_points: int = 257,
    samples: int = DEFAULT_GRID_1D,
) -> CurveSpec:
    """Smooth the curve by periodic convolution, rescale to the original
    length, and reparametrize by arclength.

    The convolution (trapezoid rule on ``quad_points`` kernel nodes) is
    applied in frequency space: curve and tangent are sampled once on the
    2 * ``samples`` nodes and cell midpoints of the length table, and their
    spectra are multiplied by the quadrature's transfer function. One
    inverse FFT gives the table; the smoothed curve is the trigonometric
    polynomial of all modes, and the reparametrization inverts its table.
    """
    if not curve.is_arclength:
        raise ValueError("mollify expects an arclength-parametrized curve")
    L = curve.length
    if not 0.0 < eps < L / 4.0:
        raise ValueError(f"mollification scale must lie in (0, L/4), got {eps!r}")
    if mollifier is None:
        mollifier = standard_mollifier()
    xi = np.linspace(-1.0, 1.0, quad_points)
    trap = np.full(quad_points, 2.0 / (quad_points - 1))
    trap[[0, -1]] *= 0.5
    weights = trap * np.asarray(mollifier.profile(xi), dtype=float)
    # discrete partition of unity: the convolution then fixes constants exactly
    kernels = [weights / weights.sum()]
    if mollifier.dprofile is not None:
        dweights = trap * np.asarray(mollifier.dprofile(xi), dtype=float) / eps
        kernels.append(dweights - dweights.mean())

    grid = np.arange(2 * samples) * (L / (2 * samples))
    pos_hat = np.fft.rfft(curve.position(grid), axis=0)
    tan_hat = np.fft.rfft(curve.derivative(grid), axis=0)
    # transfer function of sum_k w_k f(x - eps xi_k) at each mode, per kernel
    modes = pos_hat.shape[0]
    high, low = _mode_factors(-2.0 * math.pi / L * eps * xi, modes)
    transfer = np.einsum("ka,kb,kj->abj", high, low, np.column_stack(kernels))
    transfer = transfer.reshape(-1, len(kernels))[:modes]
    tan_smooth = tan_hat * transfer[:, :1]

    speed = np.linalg.norm(np.fft.irfft(tan_smooth, n=2 * samples, axis=0), axis=-1)
    cum = _cumulative_speed(np.append(speed[::2], speed[0]), speed[1::2], L)
    scale = L / cum[-1]
    # irfft weights: 1/N, doubled for the modes strictly between 0 and Nyquist
    norm = np.full((modes, 1), 2.0 * scale / (2 * samples))
    norm[[0, -1]] *= 0.5
    raw = CurveSpec(
        L,
        _trig_polynomial(norm * pos_hat * transfer[:, :1], L),
        _trig_polynomial(norm * tan_smooth, L),
        _trig_polynomial(norm * tan_hat * transfer[:, 1:], L) if len(kernels) == 2 else None,
        np.column_stack([np.linspace(0.0, L, samples + 1), scale * cum]),
        False,
        curve.name,
    )
    return arclength_reparametrize(raw)


def periodic_distance(x, y, period: float):
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % period
    return np.minimum(d, period - d)


def _row_tiles(n: int):
    """Row ranges (lo, hi) covering range(n), each of about PAIR_TILE pairs
    with all n columns: the tiles that every double sum walks."""
    rows = max(1, PAIR_TILE // n)
    for lo in range(0, n, rows):
        yield lo, min(lo + rows, n)


def _separation(lo: int, hi: int, n: int) -> np.ndarray:
    """Periodic index separation min(|i - j|, n - |i - j|) of the rows
    i in [lo, hi) from every column j of an n-point uniform grid."""
    sep = np.abs(np.arange(lo, hi)[:, None] - np.arange(n))
    return np.minimum(sep, n - sep)


def gagliardo_seminorm(
    f: Callable,
    s: float,
    rho: float,
    grid: int,
    period: float,
) -> float:
    """Double-sum quadrature of the fractional difference quotient
    |f(x)-f(y)|^rho / |x-y|^(1+s rho) over the periodic square.

    A band of one cell around the diagonal is excluded and re-added from a
    local power-law extrapolation of the nearest included band; for
    Lipschitz f the induced bias is O(1/grid).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("smoothness order s must lie in (0, 1)")
    if rho < 1.0:
        raise ValueError("integrability exponent rho must be >= 1")
    if grid < 64:
        raise ValueError("seminorm grid must be at least 64")
    h = period / grid
    x = (np.arange(grid) + 0.5) * h
    vals = np.asarray(f(x), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if not np.all(np.isfinite(vals)):
        raise ValueError("seminorm integrand has non-finite samples")
    # |x-y|^(1+s rho) by index separation; the excluded band |x-y| < 1.5 h
    # gets an infinite denominator, which zeroes its integrand
    denom = (np.arange(grid // 2 + 1) * h) ** (1.0 + s * rho)
    denom[:2] = np.inf
    coords = np.ascontiguousarray(vals.T)
    main = 0.0
    for lo, hi in _row_tiles(grid):
        diff = np.sqrt(sum((c[lo:hi, None] - c) ** 2 for c in coords))
        main += float(np.sum(diff**rho / denom[_separation(lo, hi, grid)]))
    main *= h * h
    # local extrapolation of the excluded band, modelling the integrand as
    # A(x) |x-y|^beta with the Lipschitz exponent; A comes from the nearest
    # included band, separation 2. One side of each row suffices: the other
    # side holds the same values two rows on, and only their sum is used
    beta = rho * (1.0 - s) - 1.0
    band = np.linalg.norm(vals - np.roll(vals, -2, axis=0), axis=-1) ** rho / denom[2]
    amp = band / (2.0 * h) ** beta
    width = 1.5 * h
    comp = float(amp.sum()) * h * 2.0 * width ** (beta + 1.0) / (beta + 1.0)
    return main + comp


def tangent_modulus(curve: CurveSpec, h: float, grid: int = 1024) -> float:
    """Sampled modulus of continuity of the unit tangent at offset h:
    max over the grid and over sub-offsets of |t(s+d) - t(s)|, d <= h."""
    if not curve.is_arclength:
        raise ValueError("tangent modulus expects an arclength-parametrized curve")
    s = np.linspace(0.0, curve.length, grid, endpoint=False)
    base = curve.derivative(s)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        shifted = curve.derivative(s + frac * h)
        worst = max(worst, float(np.linalg.norm(shifted - base, axis=-1).max()))
    return worst


@dataclass(frozen=True)
class CurveDiagnostics:
    bilipschitz_constant: float
    modulus_samples: np.ndarray  # rows (h, modulus), dyadic h
    max_curvature: float


def curvature_values(curve: CurveSpec, s) -> np.ndarray:
    """|second derivative| at the given arclengths, by formula or central
    differences of the tangent."""
    s = np.asarray(s, dtype=float)
    if curve.second_derivative is not None:
        return np.linalg.norm(curve.second_derivative(s), axis=-1)
    step = 1e-4 * curve.length
    dd = (curve.derivative(s + step) - curve.derivative(s - step)) / (2.0 * step)
    return np.linalg.norm(dd, axis=-1)


def curve_diagnostics(curve: CurveSpec, grid: int = 512) -> CurveDiagnostics:
    """Bilipschitz constant, dyadic tangent-modulus samples, and maximum
    curvature of an arclength-parametrized closed curve."""
    if not curve.is_arclength:
        raise ValueError("diagnostics expect an arclength-parametrized curve")
    L = curve.length
    s = np.linspace(0.0, L, grid, endpoint=False)
    h = L / grid
    coords = np.ascontiguousarray(curve.position(s).T)
    c_gamma = 0.0
    for lo, hi in _row_tiles(grid):
        chord = np.sqrt(sum((c[lo:hi, None] - c) ** 2 for c in coords))
        sep = _separation(lo, hi, grid)
        if np.any((sep > 2) & (chord < 1e-8 * L)):
            raise ValueError("curve appears to self-intersect: chord collapse detected")
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the diagonal
            ratios = sep * h / chord
        c_gamma = max(c_gamma, float(np.fmax.reduce(ratios, axis=None)))
    ks = []
    for k in range(1, 9):
        hk = L / 2.0**k
        ks.append((hk, tangent_modulus(curve, hk, grid=min(grid, 1024))))
    ks = np.array(ks[::-1])  # increasing h
    # a modulus of continuity is non-decreasing; enforce on the samples
    ks[:, 1] = np.maximum.accumulate(ks[:, 1])
    max_curv = float(curvature_values(curve, s).max())
    return CurveDiagnostics(
        bilipschitz_constant=c_gamma, modulus_samples=ks, max_curvature=max_curv
    )
