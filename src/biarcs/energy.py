"""Tangent-point energies, thickness, ropelength, and related checks.

Discrete energies live on closed biarc curves and are driven by the
junction quotients x_ij = 2 dist(l(q_j), q_i) / |q_i - q_j|^2, the inverse
tangent-point radius of junction i seen from the tangent line l(q_j) at
junction j, all computed by one formula, `_quotients`, which also gives
the inverse radii of the thickness search. The distance to the line is the
norm of d = q_i - q_j in the line's normal plane, sqrt((d . n1)^2 +
(d . n2)^2), with n1, n2 the `_normal_frame` of the unit tangent t_j, so
a quotient is three dot products of d. The discrete energy, the
continuous quadrature, whose nodes carry their curvature as the quotient
x_ii, the anneal's pair table and the thickness seed search go through
one pair walker, `_pair_tiles`. It walks each pair once, in the tiles of
`curve._triangle_tiles`: rows [lo, hi) against the columns [lo, n), about
`curve.PAIR_TILE` pairs each, or against a consumer's chosen subset of
those columns. A tile's d is one matrix product of the rows [p_i, 1] by
the columns [1; -p_j], which rounds p_i - p_j once as a subtraction does,
at a third of its cost, and gives both x_ij, with the columns' frames,
and x_ji, with the rows' frames on -d, whose projections square to the
same bits. Every tile is written into seven tile-sized work buffers per
walker, however large n is. `pair_stats` splits the tiles over the usable
CPUs, at most MAX_WALKERS walkers of which the caller is one, each with
two tiles at least, and reduces each tile to a partial: its largest
quotient t, its sum of (x / t)^q w_i w_j over both orders, with the
lengths w scaled by a power of two and the cube at q = 3 taken by
multiplication, and its extreme distances. It combines the partials in
tile order, so no sum leaves the float range at any power or scale, and
the result does not depend on the number of walkers. The seed search
needs only the largest quotients, and walks only the near field,
`_near_tiles`: each tile against the blocks of NEAR_BLOCK consecutive
nodes whose bounding boxes lie within 2 / tau of its rows, as every
quotient is at most 2 / |q_i - q_j|, with tau, the smallest of the
candidates found so far, read afresh for each tile: it only grows.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
import numpy as np

from .biarc import UNIT_TOL
from .curve import (
    CurveSpec,
    _check_embedded,
    _triangle_tiles,
    curvature_values,
    periodic_distance,
)
from .interpolate import BiarcCurve, check_Bn

# steps of the thickness refinement before it gives up; the slowest case
# seen, a mollified torus knot whose maximum lies on a narrow ridge, takes
# about a thousand
REFINE_STEPS = 2000
# the most threads one pair walk uses: each walker owns seven tile buffers
# (1.8 MB at the default PAIR_TILE), so memory stays bounded on machines
# with many CPUs
MAX_WALKERS = 4
# consecutive nodes per column block of the near-field tiles: smaller
# blocks have tighter boxes, and each tile tests one box per block
NEAR_BLOCK = 16


def _normal_frame(tangents):
    """Two unit normals n1, n2 of each unit tangent t = (x, y, z), stacked
    as a (2, 3, ...) array: with s = 1 where z >= 0, else -1, and
    a = -1 / (s + z),

        n1 = (1 + s a x^2, s a x y, -s x),  n2 = (a x y, s + a y^2, -y),

    so (t, n1, n2) is orthonormal to a few rounding errors for every unit
    t, the poles and z = -0.0 included: |s + z| >= 1, and no branch depends
    on the data (Duff et al., "Building an Orthonormal Basis, Revisited",
    JCGT 2017, who take s = copysign(1, z)). The components may be floats
    or arrays: the same arithmetic gives the same bits on both, and floats
    skip numpy's per-call cost."""
    x, y, z = tangents
    sign = (z >= 0.0) * 2.0 - 1.0
    a = -1.0 / (sign + z)
    b = x * y * a
    return np.array([[1.0 + sign * x * x * a, sign * b, -sign * x], [b, sign + y * y * a, -y]])


def _normal_square(d, frame, out=None):
    """|d_perp|^2 = (d . n1)^2 + (d . n2)^2 for differences d, a C-ordered
    (3, ...) array, in the normal planes of a (2, 3, ...) `_normal_frame`
    whose trailing axes broadcast with d's: the projections d . n1 and d . n2
    go into ``out``, a (2, ...) array of their shape (else fresh arrays), and
    the result into its first entry. One einsum per normal: a stacked
    einsum over both measured three times slower. einsum sums d's
    coordinates left to right whatever the layout of the frame, so a d
    gives the same bits wherever it is projected."""
    along1, along2 = (None, None) if out is None else out
    along1 = np.einsum("i...,i...->...", d, frame[0], out=along1)
    along2 = np.einsum("i...,i...->...", d, frame[1], out=along2)
    along1 *= along1
    along2 *= along2
    return np.add(along1, along2, out=along1)


def _inverse_radii(norm2, dist2):
    """x = 2 sqrt(norm2) / dist2 in place in ``norm2``: the pair quotients
    of the squared normal parts |d_perp|^2 and the squared distances."""
    x = np.sqrt(norm2, out=norm2)
    x *= 2.0
    x /= dist2
    return x


def _quotients(d, frame):
    """Squared distances and pair quotients of differences d = p_row -
    p_col, a C-ordered (3, ...) array, with the normal frame of the column
    point's unit tangent, a (2, 3, ...) `_normal_frame` whose trailing axes
    broadcast with d's:

        dist2 = |d|^2,  x = 2 sqrt((d . n1)^2 + (d . n2)^2) / dist2,

    the inverse tangent-point radius of the row point seen from the tangent
    line at the column point: d's component in the line's normal plane is
    (d . n1, d . n2). Coincident points give NaN quotients, so the caller
    runs it under np.errstate. Every pair quotient of the package comes
    from this formula: both orders of a move, from one d on two frames, and
    the refinement's stencils through this function, and both orders of a
    pair tile through its two steps, `_normal_square` and `_inverse_radii`.
    """
    dist2 = np.einsum("i...,i...->...", d, d)
    return dist2, _inverse_radii(_normal_square(d, frame), dist2)


def _pair_operands(points, tangents):
    """The operands of a pair walk over junctions p_j with unit tangents
    t_j: the rows [p_i, 1], a (3, n, 2) array, and the columns [1; -p_j], a
    (3, 2, n) array, whose batched matrix product is d = p_i - p_j per
    coordinate, and the tangents' `_normal_frame`, (2, 3, n). The products
    by 1 are exact, so the matrix product rounds p_i - p_j once, as a
    subtraction does, at a third of its cost: d has the subtraction's bits
    up to the sign of a zero difference, which no square sees."""
    p = np.asarray(points, dtype=float).T
    ones = np.ones_like(p)
    frame = _normal_frame(np.asarray(tangents, dtype=float).T)
    return np.stack([p, ones], axis=-1), np.stack([ones, -p], axis=1), frame


def _near_tiles(coords, reach):
    """The tiles of `curve._triangle_tiles` over n junctions, given by their
    coordinates ``coords``, a C-ordered (3, n) array, with only the columns
    that may lie within reach() of a row: for walks that need only the pairs
    within a reach, as a pair further apart has x = 2 |d_perp| / |d|^2 <=
    2 / |d| < 2 / reach(). The columns go in blocks of NEAR_BLOCK
    consecutive nodes, whose bounding boxes are taken once: a block is near
    a tile when its box lies within reach(), plus 1e-9 relative for
    rounding, of the box of the tile's rows. reach() is read as each tile
    is asked for, after the walk has taken in the tiles before it, so a walk
    whose reach shrinks tightens the tiles still to come. A tile whose every
    block is near is yielded unchanged. A block that shares a node with a
    tile's rows is at distance 0, so the columns of a tile (lo, hi, cols)
    are sorted and start with lo, ..., hi - 1, as `_pair_tiles` needs.
    """
    n = coords.shape[1]
    tiles = list(_triangle_tiles(n))
    block_starts, tile_starts = np.arange(0, n, NEAR_BLOCK), [lo for lo, _, _ in tiles]
    low, high = (f.reduceat(coords, block_starts, axis=1) for f in (np.minimum, np.maximum))
    row_low, row_high = (f.reduceat(coords, tile_starts, axis=1) for f in (np.minimum, np.maximum))

    def box_distances(chunk):
        """The squared distances between the row box of each tile in
        ``chunk`` and every block box, a (tiles, blocks) array: chunks of
        NEAR_BLOCK tiles keep the temporaries to 3 n entries."""
        gap = low[:, None] - row_high[:, chunk, None]
        np.maximum(gap, row_low[:, chunk, None] - high[:, None], out=gap)
        np.maximum(gap, 0.0, out=gap)
        return np.einsum("ijk,ijk->jk", gap, gap)

    for at in range(0, len(tiles), NEAR_BLOCK):
        chunk = slice(at, at + NEAR_BLOCK)
        for (lo, hi, cols), dist2 in zip(tiles[chunk], box_distances(chunk)):
            first = lo // NEAR_BLOCK
            near = ~(dist2[first:] > (reach() * (1.0 + 1e-9)) ** 2)
            if not near.all():
                # the near blocks' nodes from lo on; the last block may end past n
                starts = (first + np.flatnonzero(near)) * NEAR_BLOCK
                cols = (starts[:, None] + np.arange(NEAR_BLOCK)).ravel()
                past = (NEAR_BLOCK * (first + len(near)) - n) * int(near[-1])
                cols = cols[lo % NEAR_BLOCK : len(cols) - past]
            yield lo, hi, cols


def _pair_tiles(operands, diagonal=None, tiles=None):
    """Tiles of the pair quotients that hold each pair of junctions once.
    Yields (lo, cols, dist2, x, spare) for each tile (lo, hi, cols) of
    ``tiles``, read one at a time, by default every tile of
    `curve._triangle_tiles`: rows [lo, hi) against the columns ``cols``,
    slice(lo, n) or a sorted index array of columns >= lo that starts with
    lo, ..., hi - 1. For i = lo + r and j the c-th column, dist2[r, c] =
    |p_i - p_j|^2, x[0, r, c] = x_ij, the `_quotients` of p_i against p_j
    with the normal frame of t_j, and for j >= hi x[1, r, c] = x_ji, of p_j
    against p_i with the frame of t_i, from -d, whose projections square to
    the same bits: every quotient has the bits of one computed alone. x[1]
    is 0 below column hi - lo, whose pairs x[0] holds; on the diagonal
    i = j, dist2 is NaN and x[0] is diagonal[i], or 0. ``operands`` are
    `_pair_operands`, shared by every walker, and ``spare`` is an array of
    x's shape that the consumer may overwrite.

    A tile's d is one batched matrix product, and x_ji's projections go one
    tile behind x_ij's, so that the square roots and divisions run once on
    both. Every tile is written into seven work buffers sized for the
    largest triangle tile, d, dist2 and the projections in three arrays
    (one 1.5 MB block lifted glibc's mmap threshold, and the converge
    benchmark's peak RSS by 1.2 MB), so a consumer must not keep a tile
    past the next iteration. The caller runs the loop under np.errstate, in
    the thread that runs the loop: numpy keeps it per thread.
    """
    rows, cols_ops, frame = operands
    n = cols_ops.shape[-1]
    size = max(((hi - lo) * (n - lo) for lo, hi, _ in _triangle_tiles(n)), default=0)
    work = [np.empty(3 * size), np.empty(size), np.empty(3 * size)]
    for lo, hi, cols in _triangle_tiles(n) if tiles is None else tiles:
        # a slice keeps the columns a view: gathered copies of all columns
        # measured a quarter slower
        near, near_frame = cols_ops[:, :, cols], frame[:, :, None, cols]
        r, c = hi - lo, near.shape[-1]
        diff, dist2, proj = (buf[: k * r * c].reshape(k, r, c) for k, buf in zip((3, 1, 3), work))
        # r c 2 <= 2 PAIR_TILE multiply-adds per coordinate: under OpenBLAS's
        # threading threshold, so the product runs on the calling walker
        d = np.matmul(rows[:, lo:hi], near, out=diff)
        dist2 = np.einsum("i...,i...->...", d, d, out=dist2[0])
        # x_ji on every column: strided views of the columns past the tile
        # measured slower
        _normal_square(d, near_frame, proj[:2])
        _normal_square(d, frame[:, :, lo:hi, None], proj[1:])
        x = _inverse_radii(proj[:2], dist2)
        x[1, :, :r] = 0.0
        # the diagonal, node lo + r against itself in row r and column r,
        # lies at flat index r (c + 1)
        dist2.reshape(-1)[:: c + 1] = np.nan
        x[0].reshape(-1)[:: c + 1] = 0.0 if diagonal is None else diagonal[lo:hi]
        yield lo, cols, dist2, x, diff[:2]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class CoincidentJunctionsError(ValueError):
    """Two junctions of a configuration coincide relative to its diameter."""


@dataclass(frozen=True)
class PairStats:
    """One pass over the pairs of a junction configuration, i = j included."""

    energy: float  # sum_{i, j} x_ij^q lambda_i lambda_j (inf on overflow)
    log_energy: float  # its logarithm, finite where the energy overflows
    max_quotient: float  # largest x_ij: without a diagonal, the inverse thickness proxy
    min_distance: float  # smallest |q_i - q_j|


def _scaled_powers(x: np.ndarray, m: float, q: float, spare=None) -> np.ndarray:
    """(x / m)^q in place, for x <= m. At q = 3 it is x times its square,
    the square written into ``spare``, an array of x's shape (else a fresh
    one); any other q takes pow (which numpy itself turns into a square at
    q = 2). Ratios whose power would be subnormal are raised from
    2^(min_exp / q) instead, a term that adds nothing, so neither path
    produces a subnormal and pow never takes its slow subnormal path (as for
    most pairs at q = n)."""
    x /= m
    np.maximum(x, 2.0 ** (sys.float_info.min_exp / q), out=x)
    if q == 3.0:
        x *= np.multiply(x, x, out=spare)
    else:
        x **= q
    return x


def _unscaled(total, m: float, q: float, k: int):
    """total m^q 4^k and its log, elementwise: a sum of (x / m)^q w_i w_j,
    w = lambda / 2^k, in the units of x and lambda. With m = f 2^e, f in
    [1/2, 1), it is f^q total 2^(e q + 2 k): nothing overflows before the
    product, and for integral q a power-of-two dilation moves the exponent
    alone. Past q of about a thousand f^q underflows; then the product comes
    from its log."""
    f, e = math.frexp(m)
    shift = e * q + 2 * k
    with np.errstate(divide="ignore", over="ignore"):
        log = np.log(total) + q * np.log(m) + k * math.log(4.0)
        if f**q < sys.float_info.min:
            return np.exp(log), log
        return np.ldexp(total * (f**q * 2.0 ** (shift % 1.0)), math.floor(shift)), log


def pair_stats(points, tangents, lam, q: float, diagonal=None) -> PairStats:
    """Energy, largest quotient and smallest distance of the junction pairs
    in one walk of the pair kernel, each pair once in the triangle tiles,
    split over the usable CPUs (at most MAX_WALKERS threads, the caller one
    of them, each with its own tile buffers and at least two tiles). Each
    tile is reduced to its largest quotient t and its sum of (x / t)^q w_i
    w_j over both orders of its pairs, w = lam / 2^k < 1, and the tiles'
    sums are combined in tile order as the sum of s_t (t / m)^q, m the
    largest quotient: so the energy is right wherever it is representable,
    at any power and scale, and its bits do not depend on the number of
    walkers.
    A given ``diagonal`` holds each x_ii, summed alike; else x_ii = 0.
    Raises ValueError for a non-finite q; for points, tangents, lengths and
    a diagonal of shapes other than (n, 3), (n, 3), (n,) and (n,), for
    n = 0, non-finite entries, tangents further than `biarc.UNIT_TOL` from
    unit length, lengths <= 0 or a negative diagonal entry; and
    CoincidentJunctionsError, a ValueError, when two junctions coincide
    relative to the configuration's diameter."""
    if not math.isfinite(q):
        raise ValueError(f"tangent-point power q must be finite, got {q}")
    points, tangents, lam = (np.asarray(a, dtype=float) for a in (points, tangents, lam))
    n = len(points) if points.ndim else 0
    if points.shape != (n, 3) or tangents.shape != (n, 3) or lam.shape != (n,):
        raise ValueError(
            "junction points and tangents must have shape (n, 3) and lengths shape (n,), got "
            f"{points.shape}, {tangents.shape} and {lam.shape}"
        )
    if n == 0:
        raise ValueError("no junctions")
    if not all(np.isfinite(a).all() for a in (points, tangents, lam)):
        raise ValueError("junction points, tangents and lengths must be finite")
    # the normal frames of the quotients are orthonormal only to unit tangents
    if np.abs(np.sqrt(np.einsum("ij,ij->i", tangents, tangents)) - 1.0).max() > UNIT_TOL:
        raise ValueError("junction tangents must be unit vectors")
    if lam.min() <= 0.0:
        raise ValueError("biarc lengths must be positive")
    if diagonal is not None:
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.shape != (n,):
            raise ValueError(f"diagonal must have shape ({n},), got {diagonal.shape}")
        if not np.isfinite(diagonal).all():
            raise ValueError("diagonal quotients must be finite")
        if diagonal.min() < 0.0:
            raise ValueError("diagonal quotients must be non-negative")
    k = math.frexp(float(lam.max()))[1]
    w = np.ldexp(lam, -k)
    operands = _pair_operands(points, tangents)
    tiles = list(_triangle_tiles(n))
    walkers = min(_usable_cpus(), MAX_WALKERS, max(1, len(tiles) // 2))
    partials = {}  # lo -> (top, sum of (x / top)^q w_i w_j, min dist2, max dist2)
    errors = []

    def walk(share):
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for lo, cols, dist2, x, spare in _pair_tiles(operands, diagonal, share):
                    low = float(np.fmin.reduce(dist2, axis=None))
                    high = float(np.fmax.reduce(dist2, axis=None))
                    top = float(x.max())
                    s = 0.0
                    if top > 0.0:
                        y = _scaled_powers(x, top, q, spare)
                        # both orders weigh a pair by the same w_i w_j
                        forward, backward = (y @ w[cols]) @ w[lo : lo + x.shape[1]]
                        s = float(forward + backward)
                    partials[lo] = (top, s, low, high)
        except BaseException as exc:  # raised again by the caller after the joins
            errors.append(exc)

    helpers = []
    try:
        for first in range(1, walkers):
            thread = threading.Thread(target=walk, args=(tiles[first::walkers],))
            thread.start()
            helpers.append(thread)
        walk(tiles[::walkers])
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    tops, sums, lows, highs = zip(*(partials[lo] for lo, _, _ in tiles))
    # folds from the empty values: a NaN (a 1 x 1 tile's dist2) changes nothing
    m, min_d2, max_d2 = max(0.0, *tops), min(math.inf, *lows), max(0.0, *highs)
    if min_d2 <= (1e-12 * math.sqrt(max_d2)) ** 2:
        raise CoincidentJunctionsError("coincident junction points")
    total = 0.0
    for top, s in zip(tops, sums):
        if top > 0.0:
            total += s * (top / m) ** q
    energy, log_energy = (float(v) for v in _unscaled(total, m, q, k))
    return PairStats(energy, log_energy, m, math.sqrt(min_d2))


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
    """Midpoint-rule double quadrature of the inverse tangent-point radius
    to the power q over the periodic square: the `pair_stats` energy of the
    grid nodes, weights h, with the radius's limit, the curvature, on the
    diagonal. Raises ValueError for q outside (2, inf), a grid below 1 and
    when grid nodes come closer than 1e-9 L."""
    if not curve.is_arclength:
        raise ValueError("continuous energy expects an arclength-parametrized curve")
    if not 2 < q < math.inf:
        raise ValueError(f"continuous tangent-point power q must be finite and exceed 2, got {q}")
    if grid < 1:
        raise ValueError(f"quadrature grid must be at least 1, got {grid}")
    L = curve.length
    h = L / grid
    s = (np.arange(grid) + 0.5) * h
    kappa = curvature_values(curve, s)
    try:
        pairs = pair_stats(curve.position(s), curve.derivative(s), np.full(grid, h), q, kappa)
    except CoincidentJunctionsError:
        pairs = None
    if pairs is None or pairs.min_distance < 1e-9 * L:
        raise ValueError("curve is not embedded: distinct parameters collide")
    return pairs.energy


def _inverse_tp(curve: CurveSpec, L: float, s, t) -> np.ndarray:
    """Inverse tangent-point radius of gamma(t) seen from the tangent line
    at gamma(s), elementwise over s and t broadcast together. The curve is
    evaluated on s and t as given, before broadcasting."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    # gamma(t) is the row point, gamma(s) with its tangent the column point
    rows, cols, tangents = (
        np.moveaxis(a, -1, 0) for a in (curve.position(t), curve.position(s), curve.derivative(s))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.subtract(rows, cols, order="C")
        dist2, inv = _quotients(d, _normal_frame(tangents))
    # the band |s-t| < 1e-3 L is excluded: there the quotient is a 0/0
    # cancellation whose supremum is the curvature, handled separately
    excluded = (periodic_distance(s, t, L) < 1e-3 * L) | (dist2 < (1e-9 * L) ** 2)
    return np.where(excluded, 0.0, inv)


def _thickness_seeds(pos: np.ndarray, tan: np.ndarray, L: float) -> np.ndarray:
    """Grid cells (i, j), as rows of an int array, that seed the thickness
    refinement: the eight largest inverse radii of node j seen from the
    tangent line at node i, outside the band min(|i-j|, grid-|i-j|) <
    1e-3 grid, none an immediate grid neighbour of a better one. Raises
    ValueError when two grid nodes come closer than 1e-9 L.

    An exact search of the near field in one walk of `_pair_tiles`, both
    orders of a pair from one difference d, over the `_near_tiles` within
    2 / tau, tau the 32nd largest x walked so far, 0 at first. A pair
    skipped has x = 2 |d_perp| / |d|^2 <= 2 / |d| < tau, at most the final
    32nd value; coincident nodes have box distance 0. At grid 2048 the
    torus knot's walk takes 393 450 differences of its 2 098 176 pairs
    i <= j.
    """
    grid = len(pos)
    width = math.ceil(1e-3 * grid)
    band = np.arange(1 - width, width)
    k = 8 * 4  # seed candidates, before the neighbour filter keeps eight
    every = np.arange(grid)
    # the k largest x walked so far and their grid cells, largest first,
    # equal values by descending cell, as a stable sort would give them
    values, cells = np.zeros(0), np.zeros(0, dtype=int)
    tau = 0.0
    tiles = _near_tiles(np.ascontiguousarray(pos.T), lambda: 2.0 / tau if tau > 0.0 else math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, cols, dist2, x, _ in _pair_tiles(_pair_operands(pos, tan), tiles=tiles):
            rows, cols = every[lo : lo + x.shape[1]], every[cols]
            # the band cells among cols: cols[at] == band where walked
            near_band = (rows[:, None] + band) % grid
            at = np.searchsorted(cols, near_band) % len(cols)
            hit = cols[at] == near_band
            x[:, np.nonzero(hit)[0], at[hit]] = 0.0
            _check_embedded(dist2, L)
            # each order's top k apart: one index array of r c entries, not 2 r c
            for order, inv in enumerate(x.reshape(2, -1)):
                # copied, so the tile-sized index array dies here and the next
                # one reuses its memory: then the heap stops shrinking and regrowing
                top = np.argpartition(inv, -k)[-k:].copy() if inv.size > k else np.arange(inv.size)
                i, j = rows[top // len(cols)], cols[top % len(cols)]
                # x[0] is node i seen from the tangent at j, cell (j, i); x[1] the reverse
                values = np.concatenate([values, inv[top]])
                cells = np.concatenate([cells, j * grid + i if order == 0 else i * grid + j])
            best = np.lexsort((cells, values))[::-1][:k]
            values, cells = values[best], cells[best]
            tau = values[-1] if len(values) == k else 0.0
    # keep the best cells that are not immediate grid neighbours of a better one
    seeds = []
    for f in cells:
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
    equals the maximal curvature and is taken into account separately, at
    the grid nodes and at the nodes and cell midpoints of the curve's
    length table: a chain's arc breaks and its arcs' midpoints.
    """
    if not curve.is_arclength:
        raise ValueError("thickness expects an arclength-parametrized curve")
    if grid < 1:
        raise ValueError(f"thickness grid must be at least 1, got {grid}")
    L = curve.length
    h = L / grid
    s = (np.arange(grid) + 0.5) * h
    seeds = _thickness_seeds(curve.position(s), curve.derivative(s), L)
    best = float(_refine_inverse_tp(curve, L, s[seeds[:, 0]], s[seeds[:, 1]], h).max())
    breaks = curve.arclength_table[:, 0]
    nodes = np.concatenate([s, breaks, 0.5 * (breaks[:-1] + breaks[1:])])
    curv = float(np.max(curvature_values(curve, nodes)))
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
