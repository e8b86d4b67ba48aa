"""Closed parametric curves: presets, arclength reparametrization,
partitions, mollification, Gagliardo seminorms, and diagnostics.

All position/derivative callables are periodic in their parameter and
vectorized: they accept scalars or arrays of shape (...,) and return
arrays of shape (..., 3).

The presets and the mollified curves are trigonometric polynomials: tables
of Fourier coefficients that one evaluator, `_trig_polynomial`, sums, with
derivatives taken term by term from the coefficients (`_trig_curve`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional

import numpy as np

DEFAULT_GRID_1D = 2048
# points per row block when a mollified curve is evaluated
TRIG_BLOCK = 1024
# trapezoid nodes of the mollifier's convolution on [-1, 1]
MOLLIFY_NODES = 257
# relative size below which a mode of a mollified curve is noise, at the
# rounding level of its 2 * DEFAULT_GRID_1D-sample FFT: past their signal, the
# modes of the mollified torus knot and ellipse reach 1.7e-15 of the largest
# (eps = 1/32; the rounding and the base curve's length-table error, damped
# by the bump's transfer function)
MODE_FLOOR = 5e-15
# mass of the bump exp(-1/(1-x^2)) on (-1, 1) as composite Simpson on 65536
# cells gives it, one unit in the last place above the exact value
BUMP_MASS = 0.4439938161680795
# point pairs per tile of every double sum: a tile's temporaries take a
# few MB and stay cache-resident whatever the number of points
PAIR_TILE = 1 << 15


@dataclass(frozen=True)
class CurveSpec:
    """A closed curve with derivatives and a parameter-to-arclength table.

    ``arclength_table`` has shape (m, 2) with columns (parameter, arclength),
    both increasing from 0; the last row gives (period, length). When the
    two columns coincide the curve is arclength-parametrized (`is_arclength`)
    and the derivative is a unit tangent field.
    """

    position: Callable
    derivative: Callable
    second_derivative: Optional[Callable]
    arclength_table: np.ndarray

    @property
    def period(self) -> float:
        return float(self.arclength_table[-1, 0])

    @property
    def length(self) -> float:
        return float(self.arclength_table[-1, 1])

    @property
    def is_arclength(self) -> bool:
        return np.array_equal(self.arclength_table[:, 0], self.arclength_table[:, 1])


@dataclass(frozen=True)
class Partition:
    """Nodes 0 = s_0 < s_1 < ... < s_n = L of the periodic domain."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1 or s.size < 3:
            raise ValueError("partition needs at least three nodes")
        # a NaN fails no comparison below
        if not np.isfinite(s).all():
            raise ValueError("partition nodes must be finite")
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


def _cumulative_speed(speed_x: np.ndarray, speed_m: np.ndarray, period: float) -> np.ndarray:
    """Cumulative arclength on a uniform grid via per-cell Simpson, from the
    speed at the grid nodes (both ends included) and at the cell midpoints."""
    vmin = min(speed_x.min(), speed_m.min())
    if vmin <= 1e-12 * max(speed_x.max(), speed_m.max()):
        raise ValueError("curve speed vanishes on the sample grid")
    h = period / speed_m.size
    seg = h / 6.0 * (speed_x[:-1] + 4.0 * speed_m + speed_x[1:])
    return np.concatenate([[0.0], np.cumsum(seg)])


def arclength_reparametrize(raw: CurveSpec) -> CurveSpec:
    """Unit-speed reparametrization with the same image and length.

    Inverts the curve's own parameter-to-arclength table by cubic Hermite
    interpolation with the exact slopes du/ds = 1/|gamma'(u)| at the table
    nodes, evaluated once here and handed to `_hermite_inverse`, which
    `mollify` calls directly with the slopes its inverse FFT gives;
    tangents are taken from the exact derivative and renormalized, so they
    are unit to machine precision.
    """
    if raw.is_arclength:
        return raw
    slope = 1.0 / np.linalg.norm(raw.derivative(raw.arclength_table[:, 0]), axis=-1)
    return _hermite_inverse(raw, slope)


def _hermite_inverse(raw: CurveSpec, slope: np.ndarray) -> CurveSpec:
    """The unit-speed curve of `arclength_reparametrize`, given the slopes
    du/ds = 1/|gamma'(u)| at the nodes of the raw curve's length table."""
    x, cum = raw.arclength_table[:, 0], raw.arclength_table[:, 1]
    total = float(cum[-1])

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

    return CurveSpec(position, derivative, second_derivative, np.column_stack([cum, cum]))


# the parameters of each preset curve, in order, with the defaults the CLI
# takes when none are given
_PRESETS = {
    "circle": {"R": 1.0},
    "ellipse": {"a": 2.0, "b": 1.0},
    "torus_knot": {"p": 2, "q": 3, "R": 2.0, "r": 0.5},
}


def preset_curve(name: str, params) -> CurveSpec:
    """Analytic closed test curves: circle(R), ellipse(a, b),
    torus_knot(p, q, R, r), each a trigonometric polynomial of at most four
    terms (m, c), meaning Re c e^(imu), evaluated by `_trig_curve`.

    The circle is arclength-parametrized on its period 2 pi R; the others
    run over u in [0, 2 pi). Parameters must be finite, and the winding
    numbers of the knot obey |p| + |q| < DEFAULT_GRID_1D // 2: the package's
    1-D sample grids resolve no higher mode.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown curve preset {name!r}")
    params = [float(p) for p in params]
    names = list(_PRESETS[name])
    if len(params) != len(names):
        plural = "s" if len(names) > 1 else ""
        raise ValueError(
            f"{name} takes {len(names)} parameter{plural} {', '.join(names)}; got {len(params)}"
        )
    if not all(map(math.isfinite, params)):
        raise ValueError(f"{name} parameters must be finite")
    period, table = 2.0 * math.pi, None
    if name == "circle":
        (radius,) = params
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        period = 2.0 * math.pi * radius
        table = np.column_stack([np.linspace(0, period, 33)] * 2)
        terms = [(1, (radius, -1j * radius, 0.0))]
    elif name == "ellipse":
        a, b = params
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semi-axes must be positive")
        terms = [(1, (a, -1j * b, 0.0))]
    else:
        p, q, big_r, small_r = params
        if big_r <= 0 or small_r <= 0 or big_r <= small_r:
            raise ValueError("torus knot needs R > r > 0")
        if p != int(p) or q != int(q) or int(p) == 0 or int(q) == 0:
            raise ValueError("torus knot winding numbers must be nonzero integers")
        if abs(p) + abs(q) >= DEFAULT_GRID_1D // 2:
            raise ValueError(f"torus knot winding numbers need |p| + |q| < {DEFAULT_GRID_1D // 2}")
        p, q = int(p), int(q)
        # x + iy = (R + r cos qu) e^(ipu), and cos(qu) e^(ipu) splits into
        # the modes p + q and p - q; a term (c, -ic, 0) is c e^(imu) in x + iy
        half = (small_r / 2.0, -0.5j * small_r, 0.0)
        terms = [(p, (big_r, -1j * big_r, 0.0)), (p + q, half), (p - q, half)]
        terms.append((q, (0.0, 0.0, -1j * small_r)))
    coeffs = np.zeros((max(abs(m) for m, _ in terms) + 1, 3), dtype=complex)
    for m, c in terms:
        coeffs[abs(m)] += np.conj(c) if m < 0 else c
    factor = (2j * math.pi / period) * np.arange(len(coeffs))[:, None]
    return _trig_curve(coeffs, coeffs * factor, period, table)


def _length_table(derivative: Callable, period: float) -> np.ndarray:
    """The (parameter, arclength) table of a curve on DEFAULT_GRID_1D cells."""
    x = np.linspace(0.0, period, DEFAULT_GRID_1D + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    speed_x, speed_m = (np.linalg.norm(derivative(t), axis=-1) for t in (x, mid))
    return np.column_stack([x, _cumulative_speed(speed_x, speed_m, period)])


def analytic_curve(
    position: Callable,
    derivative: Callable,
    second_derivative: Optional[Callable] = None,
    period: float = 2 * math.pi,
) -> CurveSpec:
    """Wrap analytic position/derivative callables into a CurveSpec with a
    computed arclength table."""
    return CurveSpec(position, derivative, second_derivative, _length_table(derivative, period))


def _check_seed(seed) -> int:
    """The seed as an int, read through `operator.index`; anything else, or
    a negative seed, is a ValueError that names it."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return value


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# the 128-bit LCG multiplier of PCG64 (O'Neill 2014)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int) -> Callable[[int], int]:
    """numpy SeedSequence's hash of a 32-bit word, whose multiplier starts
    at ``const`` and is multiplied by ``mult`` on every call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _pcg64(seed: int) -> Iterator[int]:
    """The 64-bit outputs of ``np.random.default_rng(seed)``'s PCG64, bit
    for bit, on Python ints. SeedSequence hashes the seed's 32-bit words
    into a pool of four and the pool into four 64-bit words: the state and
    the increment of a PCG64 generator, whose XSL-RR outputs these are.
    Numpy does not promise to keep its stream across versions (NEP 19);
    this one stays."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # SeedSequence's INIT_A and MULT_A, then INIT_B and MULT_B below
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    # every pool word into every other, then each word past the fourth
    # into every pool word
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    half = [hashmix(pool[i % 4]) for i in range(8)]
    # eight 32-bit halves make four 64-bit words, low half first; the state
    # and the sequence each take two, high word first
    initstate, initseq = (
        (half[k] | half[k + 1] << 32) << 64 | half[k + 2] | half[k + 3] << 32 for k in (0, 4)
    )
    inc = (initseq << 1 | 1) & _MASK128
    state = (initstate + inc) * _PCG_MULTIPLIER + inc & _MASK128
    while True:
        state = state * _PCG_MULTIPLIER + inc & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        yield (word >> rot | word << (64 - rot)) & _MASK64


def _uniform_doubles(seed: int, size: int) -> list[float]:
    """The first ``size`` doubles in [0, 1) of ``np.random.default_rng(seed)``:
    the top 53 bits of each `_pcg64` output."""
    return [(word >> 11) * 2.0**-53 for word in islice(_pcg64(seed), size)]


def make_partition(L: float, n: int, mode: str = "uniform", seed: int = 0) -> Partition:
    """Partition of [0, L] into n cells, uniform or with jittered nodes.

    ``mode`` is "uniform" or "jitter:rho" with rho in [0, 0.4); jittering
    moves interior nodes by at most rho*L/n, which keeps every gap within
    [(1-2 rho) L/n, (1+2 rho) L/n]. The offsets are those of
    ``np.random.default_rng(seed).uniform(-rho, rho, n - 1)``, reproduced
    (`_uniform_doubles`), so ``seed`` is a non-negative integer.
    """
    seed = _check_seed(seed)
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
    # as Generator.uniform forms them, low + (high - low) u
    base[1:-1] += (-rho + (2.0 * rho) * np.array(_uniform_doubles(seed, n - 1))) * (L / n)
    return Partition(base)


def _mode_blocks(modes: int) -> tuple[int, int]:
    """(count, B) for modes m = a B + b, a < count, b < B, B about
    sqrt(modes): the shapes of `_mode_factors`."""
    width = math.isqrt(modes - 1) + 1
    return -(-modes // width), width


def _mode_factors(phase, modes: int):
    """(high, low) with e^(i m phase[p]) = high[p, a] * low[p, b] for every
    mode m = a B + b < modes, in the `_mode_blocks` of modes: about
    2 sqrt(modes) exps per phase instead of one per mode."""
    count, width = _mode_blocks(modes)
    phase = 1j * np.reshape(phase, (-1, 1))
    return np.exp(phase * (width * np.arange(count))), np.exp(phase * np.arange(width))


def _kept_modes(coeffs: np.ndarray) -> int:
    """The number of modes through the last significant one: a mode is
    significant when the norm of its coefficient vector exceeds MODE_FLOOR
    times the largest such norm over modes >= 1. Mode 0, the centroid, is
    left out of that maximum, so the count is the same for a curve moved
    rigidly or dilated. The norms are taken on the vectors scaled by the
    power of two of the largest entry: the scale is exact, so no norm
    overflows or underflows and the count is that of the unscaled norms."""
    rest = coeffs[1:]
    exponent = math.frexp(np.abs(rest).max(initial=0.0))[1]
    size = np.linalg.norm(rest * 2.0**-exponent, axis=1)
    significant = np.flatnonzero(size > MODE_FLOOR * size.max(initial=0.0))
    return int(significant[-1]) + 2 if significant.size else 1


def _trig_polynomial(coeffs: np.ndarray, period: float) -> Callable:
    """Evaluator of Re sum_m coeffs[m] exp(2 pi i m x / period) for complex
    coefficients of shape (modes, 3), at points x of any shape, with the
    sum cut after its last significant mode (`_kept_modes`). Points go in
    row blocks, so temporaries stay O(TRIG_BLOCK * sqrt(modes)); in a
    block, the low factors meet the coefficient table in one matmul and
    each point's high factors meet its row in a batched one."""
    modes = _kept_modes(coeffs)
    count, width = _mode_blocks(modes)
    padded = np.pad(coeffs[:modes], ((0, count * width - modes), (0, 0)))
    # row b, column (a, d): coefficient of mode a B + b in coordinate d
    table = padded.reshape(count, width, 3).transpose(1, 0, 2).reshape(width, count * 3)
    omega = 2.0 * math.pi / period

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        flat, out = x.ravel(), np.empty((x.size, 3))
        for lo in range(0, flat.size, TRIG_BLOCK):
            high, low = _mode_factors(omega * flat[lo : lo + TRIG_BLOCK], modes)
            inner = (low @ table).reshape(-1, count, 3)
            out[lo : lo + TRIG_BLOCK] = np.matmul(high[:, None, :], inner)[:, 0].real
        return out.reshape(x.shape + (3,))

    return evaluate


def _trig_curve(position_coeffs, tangent_coeffs, period, table) -> CurveSpec:
    """The curve whose position and derivative are the `_trig_polynomial`
    of each coefficient table; its second derivative is the tangent's,
    term by term: the tangent coefficients times 2 pi i m / period. A
    missing length table is computed by `_length_table`."""
    factor = (2j * math.pi / period) * np.arange(len(tangent_coeffs))[:, None]
    position, derivative = (_trig_polynomial(c, period) for c in (position_coeffs, tangent_coeffs))
    second = _trig_polynomial(tangent_coeffs * factor, period)
    table = _length_table(derivative, period) if table is None else table
    return CurveSpec(position, derivative, second, table)


def mollify(curve: CurveSpec, eps: float) -> CurveSpec:
    """Smooth the curve by periodic convolution with the bump
    exp(-1/(1-x^2)) scaled to [-eps, eps], rescale to the original length
    about the centroid, and reparametrize by arclength. The result is a
    trigonometric polynomial cut after its last mode above MODE_FLOOR; this
    is the one-scale case of `_mollify_sweep`, which the `mollify` command
    runs over all its scales from one sampling of the curve."""
    return _mollify_sweep(curve, [eps])[0]


def _mollify_sweep(curve: CurveSpec, scales) -> list[CurveSpec]:
    """`mollify(curve, eps)` for each eps of ``scales``.

    The convolution (trapezoid rule on MOLLIFY_NODES kernel nodes) is
    applied in frequency space: curve and tangent are sampled once, for all
    scales, on the 2 * DEFAULT_GRID_1D nodes and cell midpoints of the
    length table and transformed once. At each scale their spectra are
    multiplied by the quadrature's transfer function, one complex matmul
    per kernel. One inverse FFT gives the speed on the table nodes and
    midpoints, hence the table and the reparametrization's node slopes; the
    smoothed curve is the trigonometric polynomial of its modes above
    MODE_FLOOR, its second derivative the derivative of the tangent's kept
    modes, and the reparametrization inverts its table.
    """
    if not curve.is_arclength:
        raise ValueError("mollify expects an arclength-parametrized curve")
    L = curve.length
    for eps in scales:
        if not 0.0 < eps < L / 4.0:
            raise ValueError(f"mollification scale must lie in (0, L/4), got {eps!r}")
    xi = np.linspace(-1.0, 1.0, MOLLIFY_NODES)
    trap = np.full(MOLLIFY_NODES, 2.0 / (MOLLIFY_NODES - 1))
    trap[[0, -1]] *= 0.5
    # the bump, unit mass; it vanishes at the end nodes
    inner = xi[1:-1]
    bump = np.zeros(MOLLIFY_NODES)
    bump[1:-1] = np.exp(-1.0 / (1.0 - inner * inner)) / BUMP_MASS
    weights = trap * bump
    # discrete partition of unity: the convolution then fixes constants exactly
    weights /= weights.sum()

    samples = DEFAULT_GRID_1D
    grid = np.arange(2 * samples) * (L / (2 * samples))
    pos_hat = np.fft.rfft(curve.position(grid), axis=0)
    tan_hat = np.fft.rfft(curve.derivative(grid), axis=0)
    modes = pos_hat.shape[0]
    smoothed = []
    for eps in scales:
        # transfer function of sum_k w_k f(x - eps xi_k) at each mode:
        # transfer[a B + b] = sum_k high[k, a] low[k, b] weights[k], one
        # complex matmul (A, K) @ (K, B), read in (a, b) order
        high, low = _mode_factors(-2.0 * math.pi / L * eps * xi, modes)
        transfer = ((high * weights[:, None]).T @ low).reshape(-1, 1)[:modes]
        tan_smooth = tan_hat * transfer

        speed = np.linalg.norm(np.fft.irfft(tan_smooth, n=2 * samples, axis=0), axis=-1)
        speed_x = np.append(speed[::2], speed[0])
        cum = _cumulative_speed(speed_x, speed[1::2], L)
        scale = L / cum[-1]
        # irfft weights: 1/N, doubled for the modes strictly between 0 and Nyquist
        norm = np.full((modes, 1), 2.0 * scale / (2 * samples))
        norm[[0, -1]] *= 0.5
        pos_coeffs = norm * pos_hat * transfer
        # rescale about the centroid, the zero mode the convolution keeps, so
        # that a translated curve gives the translated result
        pos_coeffs[0] /= scale
        tan_coeffs = norm * tan_smooth
        tan_coeffs = tan_coeffs[: _kept_modes(tan_coeffs)]
        table = np.column_stack([np.linspace(0.0, L, samples + 1), scale * cum])
        raw = _trig_curve(pos_coeffs, tan_coeffs, L, table)
        # the raw curve's speed at the table nodes is scale * speed_x: the
        # polynomial's values there are what the inverse FFT already gave, up
        # to the dropped modes
        smoothed.append(_hermite_inverse(raw, 1.0 / (scale * speed_x)))
    return smoothed


def periodic_distance(x, y, period: float):
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % period
    return np.minimum(d, period - d)


def _triangle_tiles(n: int):
    """The tiles (lo, hi, slice(lo, n)) of every double sum over n points:
    rows [lo, hi) against the columns [lo, n), about PAIR_TILE pairs each,
    covering the upper triangle i <= j of the n x n pair table once. The
    tile's own columns [lo, hi) hold both orders of its pairs; a symmetric
    sum takes the columns past them twice, and the pair kernel gets both
    orders of a pair from one cell."""
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, PAIR_TILE // (n - lo)))
        yield lo, hi, slice(lo, n)
        lo = hi


def _separation(lo: int, hi: int, n: int) -> np.ndarray:
    """Periodic index separation min(|i - j|, n - |i - j|) of the rows
    i in [lo, hi) from the columns j in [lo, n) of an n-point uniform grid."""
    sep = np.abs(np.arange(lo, hi)[:, None] - np.arange(lo, n))
    return np.minimum(sep, n - sep)


def _check_embedded(dist2: np.ndarray, L: float) -> None:
    """Raise ValueError when a pair tile's smallest squared chord (NaN cells,
    such as the diagonal, skipped) is below (1e-9 L)^2: on an arclength grid
    of fewer than 1e9 nodes, two distinct nodes that close have collided."""
    if np.fmin.reduce(dist2, axis=None) < (1e-9 * L) ** 2:
        raise ValueError("curve is not embedded: distinct parameters collide")


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
    if not 1.0 <= rho < math.inf:
        raise ValueError(f"integrability exponent rho must be finite and >= 1, got {rho}")
    if grid < 64:
        raise ValueError("seminorm grid must be at least 64")
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and positive, got {period}")
    h = period / grid
    x = (np.arange(grid) + 0.5) * h
    vals = np.asarray(f(x), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if not np.all(np.isfinite(vals)):
        raise ValueError("seminorm integrand has non-finite samples")
    # distances in grid units k = |x-y| / h, so no power of h overflows; the
    # sum takes its factor h^(1 - s rho) once, at the end. The excluded band
    # k < 1.5 gets an infinite denominator, which zeroes its integrand
    denom = np.arange(grid // 2 + 1) ** (1.0 + s * rho)
    denom[:2] = np.inf
    coords = np.ascontiguousarray(vals.T)
    main = 0.0
    for lo, hi, cols in _triangle_tiles(grid):
        diff = np.sqrt(sum((c[lo:hi, None] - c[cols]) ** 2 for c in coords))
        terms = diff**rho / denom[_separation(lo, hi, grid)]
        # the integrand is symmetric: the pairs past the tile's own columns
        # stand for their mirror images too
        terms[:, hi - lo :] *= 2.0
        main += float(np.sum(terms))
    # local extrapolation of the excluded band, modelling the integrand as
    # A(x) k^beta with the Lipschitz exponent; A comes from the nearest
    # included band, separation 2. One side of each row suffices: the other
    # side holds the same values two rows on, and only their sum is used
    beta = rho * (1.0 - s) - 1.0
    band = np.linalg.norm(vals - np.roll(vals, -2, axis=0), axis=-1) ** rho / denom[2]
    comp = float(band.sum()) / 2.0**beta * 2.0 * 1.5 ** (beta + 1.0) / (beta + 1.0)
    return (main + comp) * h ** (1.0 - s * rho)


def tangent_modulus(curve: CurveSpec, h: float, grid: int = 1024) -> float:
    """Sampled modulus of continuity of the unit tangent at offset h:
    max over the grid and over sub-offsets of |t(s+d) - t(s)|, d <= h."""
    if not curve.is_arclength:
        raise ValueError("tangent modulus expects an arclength-parametrized curve")
    if not math.isfinite(h):
        raise ValueError(f"tangent modulus offset h must be finite, got {h}")
    if grid < 1:
        raise ValueError(f"tangent modulus grid must be at least 1, got {grid}")
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
    if grid < 1:
        raise ValueError(f"diagnostics grid must be at least 1, got {grid}")
    L = curve.length
    s = np.linspace(0.0, L, grid, endpoint=False)
    h = L / grid
    coords = np.ascontiguousarray(curve.position(s).T)
    c_gamma = 0.0
    # the ratio is symmetric, so the upper triangle holds its maximum
    for lo, hi, cols in _triangle_tiles(grid):
        dist2 = sum((c[lo:hi, None] - c[cols]) ** 2 for c in coords)
        dist2.reshape(-1)[:: dist2.shape[1] + 1] = np.nan
        _check_embedded(dist2, L)
        # the NaN diagonal drops out of the fmax
        ratios = _separation(lo, hi, grid) * h / np.sqrt(dist2)
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
