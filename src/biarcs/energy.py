"""Tangent-point energies, thickness, ropelength, and related checks.

Discrete energies live on closed biarc curves and are driven by the
junction quotients x_ij = 2 dist(l(q_j), q_i) / |q_i - q_j|^2, the inverse
tangent-point radius of junction i seen from the tangent line l(q_j) at
junction j. The double sums of this module - the discrete energy, the
anneal guards, the continuous quadrature and the thickness seed search -
go through one row-blocked kernel, `_pair_tiles`. It walks the row tiles
of `curve._row_tiles`, of about `curve.PAIR_TILE` pairs each, which the
Gagliardo seminorm and the curve diagnostics walk too, so no double sum
holds more than one tile however large n is. `pair_stats` reduces the
tiles in a single pass to the energy (high powers accumulated as a
streaming log-sum-exp), the largest quotient and the smallest junction
distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .curve import CurveSpec, _row_tiles, curvature_values, periodic_distance
from .interpolate import BiarcCurve, check_Bn

# switch the double sum to log-space accumulation beyond this power
LOG_SPACE_POWER = 50.0
# steps of the thickness refinement before it gives up; the slowest case
# seen, a mollified torus knot whose maximum lies on a narrow ridge, takes
# about a thousand
REFINE_STEPS = 2000


def _pair_tiles(points: np.ndarray, tangents: np.ndarray):
    """Row tiles of the pair quotient. Yields (lo, dist2, x) where, for
    i = lo + r and every j,

        dist2[r, j] = |p_i - p_j|^2,
        x[r, j] = 2 |(p_i - p_j) - ((p_i - p_j) . t_j) t_j| / dist2[r, j],

    the inverse tangent-point radius of p_i seen from the tangent line at
    p_j. On the diagonal i = j, dist2 is NaN and x is 0. The caller runs
    the loop under np.errstate: coincident points give NaN quotients.
    """
    n = len(points)
    px, py, pz = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    tx, ty, tz = np.ascontiguousarray(np.asarray(tangents, dtype=float).T)
    for lo, hi in _row_tiles(n):
        # p_i - p_j, one (rows, n) array per coordinate
        dx, dy, dz = px[lo:hi, None] - px, py[lo:hi, None] - py, pz[lo:hi, None] - pz
        dist2 = dx * dx + dy * dy + dz * dz
        along = dx * tx + dy * ty + dz * tz
        dx -= along * tx
        dy -= along * ty
        dz -= along * tz
        h = np.sqrt(dx * dx + dy * dy + dz * dz)
        # flat index of (r, lo + r) is lo + r (n + 1)
        dist2.reshape(-1)[lo :: n + 1] = np.nan
        x = 2.0 * h / dist2
        x.reshape(-1)[lo :: n + 1] = 0.0
        yield lo, dist2, x


@dataclass(frozen=True)
class PairStats:
    """One pass over the pairs i != j of a junction configuration."""

    energy: float  # sum_{i != j} x_ij^q lambda_i lambda_j (inf on overflow)
    log_energy: float  # its logarithm, finite where the energy overflows
    max_quotient: float  # largest x_ij: the inverse of the thickness proxy
    min_distance: float  # smallest |q_i - q_j|


def pair_stats(points, tangents, lam, q: float) -> PairStats:
    """Energy, largest quotient and smallest distance of the junction pairs
    in one pass of the row-blocked pair kernel.

    The energy is a plain sum for q <= LOG_SPACE_POWER and a streaming
    log-sum-exp beyond. Raises ValueError when two junctions coincide
    relative to the configuration's diameter.
    """
    lam = np.asarray(lam, dtype=float)
    log_space = q > LOG_SPACE_POWER
    total = 0.0  # the plain sum, or sum exp(term - shift) in log space
    shift = -math.inf  # largest log term so far
    max_x = 0.0
    min_d2, max_d2 = math.inf, 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo, dist2, x in _pair_tiles(points, tangents):
            lam_rows = lam[lo : lo + len(x)]
            min_d2 = min(min_d2, float(np.fmin.reduce(dist2, axis=None)))
            max_d2 = max(max_d2, float(np.fmax.reduce(dist2, axis=None)))
            max_x = max(max_x, float(x.max()))
            if log_space:
                terms = q * np.log(x) + np.log(lam_rows[:, None] * lam[None, :])
                top = float(terms.max())
                if top > shift:
                    total *= math.exp(shift - top)
                    shift = top
                if shift > -math.inf:
                    total += float(np.exp(terms - shift).sum())
            else:
                total += float(lam_rows @ (x**q @ lam))
        if min_d2 <= (1e-12 * math.sqrt(max_d2)) ** 2:
            raise ValueError("coincident junction points")
        if log_space:
            log_energy = shift + math.log(total) if total > 0.0 else -math.inf
            energy = float(np.exp(log_energy))
        else:
            energy = total
            log_energy = float(np.log(total))
    return PairStats(
        energy=energy,
        log_energy=log_energy,
        max_quotient=max_x,
        min_distance=math.sqrt(min_d2),
    )


def _beta_stats(beta: BiarcCurve, q: float) -> PairStats:
    return pair_stats(beta.junction_points, beta.junction_tangents, beta.segment_lengths, q)


def discrete_tp_energy(beta: BiarcCurve, q: float, gated: bool, L: float) -> float:
    """Double sum of x_ij^q lambda_i lambda_j over junction pairs.

    With ``gated`` the energy is +inf unless the biarc lengths satisfy the
    gate [L/(2n), 2L/n]; ungated it is finite on any closed biarc curve.
    """
    if q < 2:
        raise ValueError("tangent-point power q must be >= 2")
    n = beta.n_segments
    if gated and not check_Bn(beta, L, n):
        return math.inf
    return _beta_stats(beta, q).energy


def continuous_tp_energy(curve: CurveSpec, q: float, grid: int) -> float:
    """Double quadrature of the inverse tangent-point radius to the power q
    over the periodic square; diagonal cells use the curvature limit."""
    if not curve.is_arclength:
        raise ValueError("continuous energy expects an arclength-parametrized curve")
    if q <= 2:
        raise ValueError("continuous tangent-point power must exceed 2")
    L = curve.length
    h = L / grid
    s = (np.arange(grid) + 0.5) * h
    pos = curve.position(s)
    tan = curve.derivative(s)
    total = float(np.sum(curvature_values(curve, s) ** q))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, dist2, x in _pair_tiles(pos, tan):
            i, j = np.nonzero(dist2 < (1e-9 * L) ** 2)
            # nodes of the midpoint grid are h apart: a collapsed chord
            # between nodes more than 2.5 h apart along the curve means
            # two distinct parameters collide
            sep = np.abs(i + lo - j)
            if np.any(np.minimum(sep, grid - sep) > 2):
                raise ValueError("curve is not embedded: distinct parameters collide")
            total += float(np.sum(x**q))
    return total * h * h


def _inverse_tp(curve: CurveSpec, L: float, s, t) -> np.ndarray:
    """Inverse tangent-point radius of gamma(t) seen from the tangent line
    at gamma(s), elementwise over s and t broadcast together. The curve is
    evaluated on s and t as given, before broadcasting."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    d = curve.position(t) - curve.position(s)
    tangent = curve.derivative(s)
    dist2 = np.sum(d * d, axis=-1)
    perp = d - np.sum(d * tangent, axis=-1, keepdims=True) * tangent
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 2.0 * np.linalg.norm(perp, axis=-1) / dist2
    # the band |s-t| < 1e-3 L is excluded: there the quotient is a 0/0
    # cancellation whose supremum is the curvature, handled separately
    excluded = (periodic_distance(s, t, L) < 1e-3 * L) | (dist2 < (1e-9 * L) ** 2)
    return np.where(excluded, 0.0, inv)


def _thickness_seeds(pos: np.ndarray, tan: np.ndarray) -> np.ndarray:
    """Grid cells (i, j), as rows of an int array, that seed the thickness
    refinement: the eight largest inverse radii of node j seen from the
    tangent line at node i, outside the band min(|i-j|, grid-|i-j|) <
    1e-3 grid, none an immediate grid neighbour of a better one."""
    grid = len(pos)
    band = np.arange(1 - math.ceil(1e-3 * grid), math.ceil(1e-3 * grid))
    # the largest inverse radii of the grid, tile by tile: the top cells of
    # each tile include every cell of the global top that lies in it
    k = 8 * 4  # seed candidates, before the neighbour filter keeps eight
    values, cells = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, _, x in _pair_tiles(pos, tan):
            rows = np.arange(len(x))[:, None]
            x[rows, (lo + rows + band) % grid] = 0.0
            inv = x.reshape(-1)
            top = np.argpartition(inv, -k)[-k:] if inv.size > k else np.arange(inv.size)
            # x[r, c] is the inverse radius of node lo + r seen from the
            # tangent line at node c: grid cell (c, lo + r)
            r, c = np.divmod(top, grid)
            values.append(inv[top])
            cells.append(c * grid + lo + r)
    values, cells = np.concatenate(values), np.concatenate(cells)
    # largest first; equal values by descending cell, as a stable sort would
    flat = cells[np.lexsort((cells, values))[::-1][:k]]
    # keep the best cells that are not immediate grid neighbours of a better one
    seeds = []
    for f in flat:
        i, j = divmod(int(f), grid)
        if all(max(abs(i - a), abs(j - b)) > 1 for a, b in seeds):
            seeds.append((i, j))
        if len(seeds) == 8:
            break
    return np.array(seeds, dtype=int).reshape(-1, 2)


def _refine_inverse_tp(curve: CurveSpec, L: float, s, t, step: float) -> np.ndarray:
    """Local maxima of the inverse radius from the seeds (s, t), all at once.

    Each step evaluates the 3 x 3 compass stencil around every seed and
    around its pattern point, the seed plus twice its last move
    (Hooke-Jeeves), so a seed can follow a narrow ridge that no stencil
    direction lies along. The seed moves to the best point when that gains
    more than 1e-13 relative (less is rounding noise); a seed whose centre
    wins halves its step. Refinement ends when every step is below
    1e-10 L. Returns the values.
    """
    offsets = np.array([0.0, -1.0, 1.0])  # centre first
    z = np.column_stack([s, t]).astype(float)
    move = np.zeros_like(z)
    h = np.full(len(z), float(step))
    rows = np.arange(len(z))
    for _ in range(REFINE_STEPS):
        # stencil axes (seed, centre, s offset, t offset): 6 + 6 curve points
        # per seed instead of 18 pairs
        centres = np.stack([z, z + 2.0 * move], axis=1)
        hs = h[:, None] * offsets
        ss = centres[:, :, 0, None, None] + hs[:, None, :, None]
        tt = centres[:, :, 1, None, None] + hs[:, None, None, :]
        vals = _inverse_tp(curve, L, ss, tt).reshape(len(z), 18)
        win = np.argmax(vals, axis=1)
        win[vals[rows, win] <= vals[:, 0] * (1.0 + 1e-13)] = 0
        chosen = np.stack(np.broadcast_arrays(ss, tt), axis=-1).reshape(len(z), 18, 2)[rows, win]
        move = chosen - z
        z = chosen
        h = np.where(win == 0, 0.5 * h, h)
        if np.all(h < 1e-10 * L):
            return vals[rows, win]
    raise RuntimeError(
        f"thickness refinement did not converge; best inverse radius {vals.max()!r}"
    )


def thickness_and_ropelength(curve: CurveSpec, grid: int = 64) -> tuple[float, float]:
    """Thickness (smallest tangent-point radius) and ropelength length/Delta.

    The largest inverse radii of a coarse pair grid seed one vectorized
    compass refinement (`_refine_inverse_tp`); the near-diagonal supremum
    equals the maximal curvature and is taken into account separately.
    """
    if not curve.is_arclength:
        raise ValueError("thickness expects an arclength-parametrized curve")
    L = curve.length
    h = L / grid
    s = (np.arange(grid) + 0.5) * h
    seeds = _thickness_seeds(curve.position(s), curve.derivative(s))
    best = float(_refine_inverse_tp(curve, L, s[seeds[:, 0]], s[seeds[:, 1]], h).max())
    curv = float(np.max(curvature_values(curve, s)))
    sup_inv = max(best, curv)
    delta = 1.0 / sup_inv
    return delta, L / delta


def ropelength_proxy(beta: BiarcCurve, L: float) -> float:
    """L^((n-2)/n) * (n-th discrete energy)^(1/n), evaluated in log space.

    Returns +inf when the curve fails the length gate.
    """
    n = beta.n_segments
    if not check_Bn(beta, L, n):
        return math.inf
    log_energy = _beta_stats(beta, float(n)).log_energy
    return float(np.exp((n - 2) / n * math.log(L) + log_energy / n))


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs: float
    holds: bool


def holder_bound_check(beta: BiarcCurve, k: float, m: float, L: float) -> HolderCheck:
    """Power-mean comparison of discrete energies: the k-th root energy is
    bounded by the m-th root energy times (4 len^2 n(n-1)/n^2)^(1/k - 1/m)."""
    if not 2 <= k <= m:
        raise ValueError("need 2 <= k <= m")
    n = beta.n_segments
    if not check_Bn(beta, L, n):
        raise ValueError("biarc curve fails the length gate")
    lhs = math.exp(_beta_stats(beta, float(k)).log_energy / k)
    length = beta.total_length
    factor = (4.0 * length * length * n * (n - 1) / n**2) ** (1.0 / k - 1.0 / m)
    rhs = factor * math.exp(_beta_stats(beta, float(m)).log_energy / m)
    return HolderCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-12))
