"""Tangent-point energies, thickness, ropelength, and related checks.

Discrete energies live on closed biarc curves and are driven by the
junction quotients x_ij = 2 dist(l(q_j), q_i) / |q_i - q_j|^2, the inverse
tangent-point radius of junction i seen from the tangent line l(q_j) at
junction j, all computed by one formula, `_quotients`, which also gives
the inverse radii of the thickness search. The discrete energy, the
continuous quadrature and the anneal's pair table go through one
row-blocked kernel, `_pair_tiles`. It walks the row tiles of
`curve._row_tiles`, of about `curve.PAIR_TILE` pairs each, which the
Gagliardo seminorm and the curve diagnostics walk too, so no double sum
holds more than one tile however large n is. `pair_stats` reduces the
tiles in a single pass to the energy (high powers accumulated as a
streaming log-sum-exp), the largest quotient and the smallest junction
distance; a plain sum that leaves the normal float range, as at extreme
scales, is walked once more in log space. The thickness seed search walks the same row tiles but only
against the column blocks within 2 / tau of the tile: every quotient is
at most 2 / |q_i - q_j|, and tau bounds the smallest value it keeps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
import numpy as np

from .curve import CurveSpec, _check_embedded, _row_tiles, curvature_values, periodic_distance
from .interpolate import BiarcCurve, check_Bn

# switch the double sum to log-space accumulation beyond this power
LOG_SPACE_POWER = 50.0
# steps of the thickness refinement before it gives up; the slowest case
# seen, a mollified torus knot whose maximum lies on a narrow ridge, takes
# about a thousand
REFINE_STEPS = 2000
# the grid rows that bound the thickness seed scan (see `_thickness_seeds`)
SEED_STRIDE = 32


def _quotients(rows, cols, tangents):
    """Squared distances and pair quotients of row points against column
    points with their unit tangents, each given as a coordinate triple
    (x, y, z) of arrays that broadcast to the shape of the result:

        dist2 = |p_row - p_col|^2,
        x = 2 |(p_row - p_col) - ((p_row - p_col) . t_col) t_col| / dist2,

    the inverse tangent-point radius of the row point seen from the tangent
    line at the column point. Coincident points give NaN quotients, so the
    caller runs it under np.errstate. Every pair quotient of the package,
    whole tiles, one row and one column, or the thickness refinement's
    stencils, comes from this formula.
    """
    (rx, ry, rz), (px, py, pz), (tx, ty, tz) = rows, cols, tangents
    dx, dy, dz = rx - px, ry - py, rz - pz
    # the sums below, evaluated left to right into two work arrays: a tile
    # is large, and fresh temporaries for every product cost page faults
    dist2, tmp = dx * dx, dy * dy
    dist2 += tmp
    dist2 += np.multiply(dz, dz, out=tmp)
    along = dx * tx
    along += np.multiply(dy, ty, out=tmp)
    along += np.multiply(dz, tz, out=tmp)
    dx -= np.multiply(along, tx, out=tmp)
    dy -= np.multiply(along, ty, out=tmp)
    dz -= np.multiply(along, tz, out=tmp)
    h = np.multiply(dx, dx, out=along)
    h += np.multiply(dy, dy, out=tmp)
    h += np.multiply(dz, dz, out=tmp)
    x = np.sqrt(h, out=h)
    x *= 2.0
    x /= dist2
    return dist2, x


def _pair_tiles(points: np.ndarray, tangents: np.ndarray):
    """Row tiles of the pair quotient. Yields (lo, dist2, x) where, for
    i = lo + r and every j, dist2[r, j] and x[r, j] are the `_quotients`
    of p_i against p_j with tangent t_j. On the diagonal i = j, dist2 is
    NaN and x is 0. The caller runs the loop under np.errstate.
    """
    n = len(points)
    p = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    t = np.ascontiguousarray(np.asarray(tangents, dtype=float).T)
    for lo, hi in _row_tiles(n):
        dist2, x = _quotients(p[:, lo:hi, None], p, t)
        # flat index of (r, lo + r) is lo + r (n + 1)
        dist2.reshape(-1)[lo :: n + 1] = np.nan
        x.reshape(-1)[lo :: n + 1] = 0.0
        yield lo, dist2, x


@dataclass(frozen=True)
class PairStats:
    """One pass over the pairs i != j of a junction configuration."""

    energy: float  # sum_{i != j} x_ij^q lambda_i lambda_j (inf on overflow)
    log_energy: float  # its logarithm, finite where the energy overflows
    max_quotient: float  # largest x_ij: the inverse of the thickness proxy
    min_distance: float  # smallest |q_i - q_j|


def _pair_sums(points, tangents, lam, q: float, log_space: bool):
    """One pass of the row-blocked pair kernel. Returns the energy's sum,
    plain or as sum exp(term - shift) with its shift in log space, and the
    largest quotient and the smallest and largest squared distance. The
    caller runs it under np.errstate."""
    total = 0.0
    shift = -math.inf  # largest log term so far
    max_x = 0.0
    min_d2, max_d2 = math.inf, 0.0
    for lo, dist2, x in _pair_tiles(points, tangents):
        lam_rows = lam[lo : lo + len(x)]
        min_d2 = min(min_d2, float(np.fmin.reduce(dist2, axis=None)))
        max_d2 = max(max_d2, float(np.fmax.reduce(dist2, axis=None)))
        max_x = max(max_x, float(x.max()))
        if log_space:
            # q log x + log(lam_i lam_j) in place, the weights in dist2
            terms = np.log(x, out=x)
            terms *= q
            terms += np.log(np.multiply(lam_rows[:, None], lam, out=dist2), out=dist2)
            top = float(terms.max())
            if top > shift:
                total *= math.exp(shift - top)
                shift = top
            if shift > -math.inf:
                terms -= shift
                total += float(np.exp(terms, out=terms).sum())
        else:
            x **= q
            total += float(lam_rows @ (x @ lam))
    return total, shift, max_x, min_d2, max_d2


def pair_stats(points, tangents, lam, q: float) -> PairStats:
    """Energy, largest quotient and smallest distance of the junction pairs
    in one pass of the row-blocked pair kernel.

    The energy is a plain sum for q <= LOG_SPACE_POWER and a streaming
    log-sum-exp beyond. A plain sum that leaves the normal range of floats,
    as at very small or very large scales, is walked again in log space, so
    ``log_energy`` stays finite and the energy is right wherever it is
    representable. Raises ValueError when two junctions coincide relative to
    the configuration's diameter.
    """
    lam = np.asarray(lam, dtype=float)
    log_space = q > LOG_SPACE_POWER
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total, shift, max_x, min_d2, max_d2 = _pair_sums(points, tangents, lam, q, log_space)
        if min_d2 <= (1e-12 * math.sqrt(max_d2)) ** 2:
            raise ValueError("coincident junction points")
        if not (log_space or sys.float_info.min <= total < math.inf):
            log_space = True
            total, shift = _pair_sums(points, tangents, lam, q, log_space)[:2]
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
    if gated and not check_Bn(beta, L):
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
    every = np.arange(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, dist2, x in _pair_tiles(pos, tan):
            _check_embedded(dist2, every[lo : lo + len(x)], every, grid, L)
            x **= q
            total += float(np.sum(x))
    return total * h * h


def _inverse_tp(curve: CurveSpec, L: float, s, t) -> np.ndarray:
    """Inverse tangent-point radius of gamma(t) seen from the tangent line
    at gamma(s), elementwise over s and t broadcast together. The curve is
    evaluated on s and t as given, before broadcasting."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    # gamma(t) is the row point, gamma(s) with its tangent the column point
    operands = (curve.position(t), curve.position(s), curve.derivative(s))
    with np.errstate(divide="ignore", invalid="ignore"):
        dist2, inv = _quotients(*(np.moveaxis(a, -1, 0) for a in operands))
    # the band |s-t| < 1e-3 L is excluded: there the quotient is a 0/0
    # cancellation whose supremum is the curvature, handled separately
    excluded = (periodic_distance(s, t, L) < 1e-3 * L) | (dist2 < (1e-9 * L) ** 2)
    return np.where(excluded, 0.0, inv)


def _thickness_seeds(pos: np.ndarray, tan: np.ndarray, L: float) -> np.ndarray:
    """Grid cells (i, j), as rows of an int array, that seed the thickness
    refinement: the eight largest inverse radii of node j seen from the
    tangent line at node i, outside the band min(|i-j|, grid-|i-j|) <
    1e-3 grid, none an immediate grid neighbour of a better one. Raises
    ValueError when grid nodes more than 2 cells apart collide.

    An exact search of the near field: x = 2 |d_perp| / |d|^2 <= 2 / |d|,
    so no pair farther apart than 2 / tau is among the 32 candidates if tau
    bounds the 32nd largest x from below. Pass 1 takes tau from every
    SEED_STRIDE-th row; pass 2 evaluates a row tile against the column
    blocks (the same node ranges) whose bounding box lies within 2 / tau,
    plus 1e-9 relative for rounding, of the tile's box. A NaN tau skips
    nothing; coincident nodes have box distance 0. At grid 2048 the torus
    knot evaluates 16 % of the pairs; no stride or block length was faster.
    """
    grid = len(pos)
    width = math.ceil(1e-3 * grid)
    band = np.arange(1 - width, width)
    k = 8 * 4  # seed candidates, before the neighbour filter keeps eight
    p = np.ascontiguousarray(np.asarray(pos, dtype=float).T)
    t = np.ascontiguousarray(np.asarray(tan, dtype=float).T)

    def tile_top(rows, cols, dist2, x):
        """The k largest x of a tile, rows against the sorted cols, outside
        the band, and their grid cells (col, row)."""
        # the band cells among cols: cols[at] == cells where evaluated
        cells = (rows[:, None] + band) % grid
        at = np.searchsorted(cols, cells) % len(cols)
        hit = cols[at] == cells
        dist2[np.arange(len(rows)), at[:, width - 1]] = np.nan
        x[np.nonzero(hit)[0], at[hit]] = 0.0
        _check_embedded(dist2, rows, cols, grid, L)
        inv = x.reshape(-1)
        # copied, so the tile-sized index array dies here (the caller keeps its
        # tile until the next): then the heap stops shrinking and regrowing
        top = np.argpartition(inv, -k)[-k:].copy() if inv.size > k else np.arange(inv.size)
        r, c = np.divmod(top, len(cols))
        return inv[top], cols[c] * grid + rows[r]

    every = np.arange(grid)
    tiles = np.array(list(_row_tiles(grid)))
    size = int(tiles[0, 1])  # rows of a tile, nodes of a column block
    with np.errstate(divide="ignore", invalid="ignore"):
        sample = [np.zeros(k)]
        strided = np.arange(0, grid, SEED_STRIDE)
        for rows in np.split(strided, range(size, len(strided), size)):
            dist2, x = _quotients(p[:, rows, None], p, t)
            sample.append(tile_top(rows, every, dist2, x)[0])
        reach = 2.0 * (1.0 + 1e-9) / np.partition(np.concatenate(sample), -k)[-k]
        low, high = np.minimum.reduceat(pos, tiles[:, 0]), np.maximum.reduceat(pos, tiles[:, 0])
        block = every // size
        tops = []  # each tile's top holds every cell of the global top in it
        for b, (lo, hi) in enumerate(tiles):
            gap = np.maximum(np.maximum(low - high[b], low[b] - high), 0.0)
            cols = np.flatnonzero(~(np.sqrt(np.sum(gap * gap, axis=1)) > reach)[block])
            # gathered copies of all columns measured a quarter slower
            near = (p, t) if len(cols) == grid else (p[:, cols], t[:, cols])
            dist2, x = _quotients(p[:, lo:hi, None], *near)
            tops.append(tile_top(every[lo:hi], cols, dist2, x))
    values, cells = (np.concatenate(a) for a in zip(*tops))
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
    seeds = _thickness_seeds(curve.position(s), curve.derivative(s), L)
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
    if not check_Bn(beta, L):
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
    if not check_Bn(beta, L):
        raise ValueError("biarc curve fails the length gate")
    lhs = math.exp(_beta_stats(beta, float(k)).log_energy / k)
    length = beta.total_length
    factor = (4.0 * length * length * n * (n - 1) / n**2) ** (1.0 / k - 1.0 / m)
    rhs = factor * math.exp(_beta_stats(beta, float(m)).log_energy / m)
    return HolderCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-12))
