"""Point-tangent pairs, the balanced matching point, and balanced biarcs.

A biarc interpolates a pair of point-tangent data (p0, t0), (p1, t1) with
two circular arcs joined C^1 at a matching point m. The admissible matching
points of a non-degenerate pair form a circle through p0 and p1, tangent at
p0 to u = normalize(t0 + t1*), where t1* is t1 reflected at the unit chord
e = (p1 - p0) / |p1 - p0|. We always pick the *balanced* point, equidistant
from both data points: the angular midpoint of the subarc running from p0
to p1. It lies on the bisector of the chord at the sagitta of that subarc,

    m = (p0 + p1) / 2 + (|p1 - p0| / 2) (u - (u.e) e) / (1 + u.e),

a closed form without branches: w = t0 + t1* has e.w = e.t0 + e.t1 > 0, so
1 + u.e > 1 for every proper pair. A proper pair therefore meets no check
but the joins of its two arcs, within JOIN_TOL, which every built biarc
passes; where rounding breaks a join, it raises the join's PairError.

`_pair_arcs` is the one construction of a balanced biarc, written once
over coordinate triples with an array namespace ``xp``. On (n,) numpy
columns it builds n biarcs at once: `_balanced_arcs` gathers them into the
flat arc arrays of a chain, and every chain and every single biarc is built
that way. On Python floats (`_Floats`) it rebuilds the two biarcs next to a
moved junction of the annealer, `_move_lengths`, where numpy's per-call
cost would outweigh the arithmetic of two pairs. The same operations in the
same order give the same lengths bit for bit and fail on the same pairs.
`_arc_at` evaluates arcs, for the join checks and for `_eval_arcs` alike.
`PointTangent`, `Arc` and `Biarc` are single-pair views of the arc arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# Largest deviation from 1 of the norm of a unit tangent.
UNIT_TOL = 1e-9
# Largest tangent mismatch, and position mismatch relative to the biarc's
# length, that a built biarc may show where its arcs meet.
JOIN_TOL = 1e-9


class PairError(ValueError):
    """No balanced biarc interpolates a point-tangent pair. ``index`` is the
    position of the first failing pair in its batch."""

    def __init__(self, message: str = "", index: int = 0):
        super().__init__(message)
        self.index = index


class ImproperPairError(PairError):
    """The pair's tangents do not both point forward along the chord (which
    includes coincident points)."""


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def _require_unit(v, tol: float = UNIT_TOL) -> np.ndarray:
    a = _as_vec3(v)
    if abs(np.linalg.norm(a) - 1.0) > tol:
        raise ValueError(f"direction is not unit length: |v| = {np.linalg.norm(a)!r}")
    return a


@dataclass(frozen=True)
class PointTangent:
    """A position together with a unit tangent direction."""

    point: np.ndarray
    tangent: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", _as_vec3(self.point))
        object.__setattr__(self, "tangent", _require_unit(self.tangent))
        if not np.all(np.isfinite(self.point)):
            raise ValueError("point has non-finite components")


@dataclass(frozen=True)
class Arc:
    """Circular arc given by start point, unit start tangent, curvature
    vector (zero for a straight segment, |curvature| = 1/radius otherwise,
    always perpendicular to the start tangent), and arclength."""

    start: np.ndarray
    direction: np.ndarray
    curvature: np.ndarray
    length: float

    def __post_init__(self):
        object.__setattr__(self, "start", _as_vec3(self.start))
        object.__setattr__(self, "direction", _require_unit(self.direction))
        object.__setattr__(self, "curvature", _as_vec3(self.curvature))
        if abs(float(np.dot(self.direction, self.curvature))) > 1e-9 * max(
            1.0, np.linalg.norm(self.curvature)
        ):
            raise ValueError("curvature vector must be perpendicular to the direction")
        if not self.length > 0.0:
            raise ValueError("arc length must be positive")

    def at(self, s):
        """Position and unit tangent at arclength s (scalar or array)."""
        k = float(np.linalg.norm(self.curvature))
        normal = self.curvature / k if k > 0.0 else np.zeros(3)
        return _eval_arcs(self.start, self.direction, normal, k, s)

    @property
    def end(self) -> np.ndarray:
        return self.at(self.length)[0]

    @property
    def end_tangent(self) -> np.ndarray:
        return self.at(self.length)[1]


@dataclass(frozen=True)
class Biarc:
    first: Arc
    second: Arc
    matching_point: np.ndarray
    pair: tuple[PointTangent, PointTangent]

    @property
    def total_length(self) -> float:
        return self.first.length + self.second.length


# The five array functions of `_pair_arcs` and `_arc_at` on Python floats.
# math.sqrt, sin and cos round as numpy's do; the angle comes from np.arctan2,
# which math.atan2 does not match. ``where`` picks between two values already
# computed, as np.where does.
_Floats = SimpleNamespace(
    sqrt=math.sqrt,
    sin=math.sin,
    cos=math.cos,
    arctan2=lambda y, x: float(np.arctan2(y, x)),
    where=lambda c, a, b: a if c else b,
)


def _arc_at(start, direction, normal, k, s, xp):
    """Position and unit tangent, as coordinate triples, at arclength s along
    the arc with the given start point, unit start tangent, unit normal
    (zero on a straight arc) and curvature k; xp is np or _Floats."""
    (sx, sy, sz), (dx, dy, dz), (nx, ny, nz) = start, direction, normal
    phi = s * k
    sinp = xp.sin(phi)
    straight = k == 0.0
    rk = 1.0 / xp.where(straight, 1.0, k)
    along = xp.where(straight, s, rk * sinp)
    # r (1 - cos phi) written without its cancellation for small phi
    half = xp.sin(0.5 * phi)
    bend = 2.0 * rk * (half * half)
    cosp = xp.cos(phi)
    return (
        ((sx + along * dx) + bend * nx, (sy + along * dy) + bend * ny, (sz + along * dz) + bend * nz),
        (cosp * dx + sinp * nx, cosp * dy + sinp * ny, cosp * dz + sinp * nz),
    )


def _eval_arcs(starts, dirs, normals, k, local):
    """Position and unit tangent at arclength ``local`` along arcs given by
    start point, unit start tangent, unit normal (zero on a straight arc)
    and curvature k. Arguments broadcast: per-arc arrays of shape (..., 3)
    and (...,), or a single arc's vectors with ``local`` of any shape."""
    k = np.asarray(k, dtype=float)
    local = np.asarray(local, dtype=float)
    arcs = (np.moveaxis(a, -1, 0) for a in (starts, dirs, normals))
    pos, tan = _arc_at(*arcs, k, local, np)
    return np.stack(pos, axis=-1), np.stack(tan, axis=-1)


def _arc_to(start, direction, end, xp):
    """Unit normal, curvature and length of the arc that leaves start along
    the unit direction and ends at end."""
    (sx, sy, sz), (dx, dy, dz), (ex, ey, ez) = start, direction, end
    cx, cy, cz = ex - sx, ey - sy, ez - sz
    chord2 = (cx * cx + cz * cz) + cy * cy
    along = (cx * dx + cz * dz) + cy * dy
    px, py, pz = cx - along * dx, cy - along * dy, cz - along * dz
    # project once more: on a nearly straight arc the residue is tiny, and
    # the rounding of the first projection leaves a part along the direction
    # that is large next to it
    back = (px * dx + pz * dz) + py * dy
    px, py, pz = px - back * dx, py - back * dy, pz - back * dz
    h = xp.sqrt((px * px + pz * pz) + py * py)
    hn = xp.where(h > 0.0, h, 1.0)
    # radius chord2 / 2h; the arc turns twice its tangent-chord angle
    length = xp.where(h > 0.0, chord2 * xp.arctan2(h, along) / hn, along)
    return (px / hn, py / hn, pz / hn), 2.0 * h / chord2, length


def _misses(arc, end, end_tangent, xp):
    """How far the end point and end tangent of an arc (start, direction,
    normal, k, length) lie from the given ones."""
    (px, py, pz), (tx, ty, tz) = _arc_at(*arc, xp)
    (ex, ey, ez), (fx, fy, fz) = end, end_tangent
    gx, gy, gz = px - ex, py - ey, pz - ez
    mx, my, mz = tx - fx, ty - fy, tz - fz
    return xp.sqrt((gx * gx + gz * gz) + gy * gy), xp.sqrt((mx * mx + mz * mz) + my * my)


def _pair_arcs(p0, t0, p1, t1, xp):
    """The balanced biarc of the pair (p0, t0) -> (p1, t1), each a coordinate
    triple: of (n,) arrays for n pairs when xp is np, of floats for one pair
    when xp is _Floats. Every dot product is summed as (x x' + z z') + y y'.

    Returns its two arcs, each as (start, direction, normal, k, length), the
    biarc length, whether the pair passed every check, and the quantities
    checked, which `_pair_error` reads.
    """
    (x0, y0, z0), (a0, b0, c0), (x1, y1, z1), (a1, b1, c1) = p0, t0, p1, t1
    dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
    dd = (dx * dx + dz * dz) + dy * dy
    proper = ((dx * a0 + dz * c0) + dy * b0 > 0.0) & ((dx * a1 + dz * c1) + dy * b1 > 0.0)
    dist = xp.sqrt(dd)
    ex, ey, ez = dx / dist, dy / dist, dz / dist
    s = 2.0 * ((ex * a1 + ez * c1) + ey * b1)
    # w = t0 + t1* = (t0 - t1) + s e: equal tangents cancel exactly, so u
    # keeps its precision where |w| is tiny
    wx, wy, wz = (a0 - a1) + s * ex, (b0 - b1) + s * ey, (c0 - c1) + s * ez
    wlen = xp.sqrt((wx * wx + wz * wz) + wy * wy)
    ux, uy, uz = wx / wlen, wy / wlen, wz / wlen
    ue = (ux * ex + uz * ez) + uy * ey
    r = 0.5 * dist / (1.0 + ue)
    mx = 0.5 * (x0 + x1) + r * (ux - ue * ex)
    my = 0.5 * (y0 + y1) + r * (uy - ue * ey)
    mz = 0.5 * (z0 + z1) + r * (uz - ue * ez)
    # the second arc leaves m along t1 reflected at its chord
    cx, cy, cz = x1 - mx, y1 - my, z1 - mz
    g = 2.0 * (((cx * a1 + cz * c1) + cy * b1) / ((cx * cx + cz * cz) + cy * cy))
    m, t_m = (mx, my, mz), (g * cx - a1, g * cy - b1, g * cz - c1)
    first = (p0, t0, *_arc_to(p0, t0, m, xp))
    second = (m, t_m, *_arc_to(m, t_m, p1, xp))
    total = first[4] + second[4]
    # each arc must end where the next piece starts: the first at m along
    # t_m, the second at p1 along t1; a NaN fails every comparison
    gap0, turn0 = _misses(first, m, t_m, xp)
    gap1, turn1 = _misses(second, p1, t1, xp)
    tol = JOIN_TOL * total
    ok = proper & (gap0 <= tol) & (gap1 <= tol) & (turn0 <= JOIN_TOL) & (turn1 <= JOIN_TOL)
    return first, second, total, ok, (dd, proper, gap0, gap1, turn0, turn1)


def _pair_error(index, dd, proper, gap0, gap1, turn0, turn1) -> PairError:
    """The PairError of a pair that failed the checks of `_pair_arcs`, given
    the quantities it checked."""
    if dd == 0.0:
        return ImproperPairError("point-tangent pair has coincident points", index)
    if not proper:
        msg = "pair is not proper: both tangents must make a positive inner product with the chord"
        return ImproperPairError(msg, index)
    return PairError(
        f"biarc join failed to close: position gap {np.maximum(gap0, gap1):.3e}, tangent "
        f"mismatch {np.maximum(turn0, turn1):.3e}",
        index,
    )


def _balanced_arcs(p0, t0, p1, t1):
    """Balanced biarcs through the n pairs (p0, t0) -> (p1, t1), each given
    as an (n, 3) array.

    Returns the flat arrays (starts, dirs, normals, k, lengths) of the 2n
    arcs in chain order, read by `_eval_arcs`: arc 2i is the first arc of
    pair i, arc 2i + 1 its second, and starts[2i + 1] its matching point.
    The n biarc lengths come last. Raises the PairError of the first pair
    that is improper (an ImproperPairError) or whose arcs fail to meet
    within JOIN_TOL, with ``index`` set to that pair.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        first, second, total, ok, checked = _pair_arcs(p0.T, t0.T, p1.T, t1.T, np)
    if not ok.all():
        i = int(np.argmin(ok))
        raise _pair_error(i, *(v[i] for v in checked))
    arcs = []
    for pair in zip(first, second):
        a = np.array(pair)  # (2, 3, n) for a vector field, (2, n) for k and lengths
        # rows first_0, second_0, first_1, second_1, ...
        arcs.append(np.moveaxis(a, -1, 0).reshape(-1, *a.shape[1:-1]))
    return (*arcs, total)


def _move_lengths(points, tangents):
    """Lengths of the balanced biarcs from junction 0 to 1 and from 1 to 2
    of three consecutive junctions, given as sequences of three points and
    three unit tangents, each a sequence of 3 floats.

    `_pair_arcs` on Python floats: the biarc lengths `_balanced_arcs` gives
    for these two pairs, bit for bit, at a fraction of numpy's per-call
    cost. It raises a PairError, with ``index`` at the first failing pair,
    on exactly the pairs where `_balanced_arcs` raises; where the arrays get
    an inf or NaN the floats may raise ZeroDivisionError or a math domain
    error instead, which becomes a PairError too.
    """
    totals = []
    for i in (0, 1):
        try:
            arcs = _pair_arcs(points[i], tangents[i], points[i + 1], tangents[i + 1], _Floats)
        except (ZeroDivisionError, ValueError) as exc:  # ValueError: math domain error
            raise PairError(f"biarc is not finite: {exc}", i) from exc
        if not arcs[3]:
            raise _pair_error(i, *arcs[4])
        totals.append(arcs[2])
    return tuple(totals)


def _biarc_view(starts, dirs, normals, k, lengths, pair) -> Biarc:
    """The Biarc made of arcs 0 and 1 of the given flat arc arrays."""
    first, second = (
        Arc(starts[j], dirs[j], k[j] * normals[j], float(lengths[j])) for j in (0, 1)
    )
    return Biarc(first=first, second=second, matching_point=starts[1], pair=pair)


def build_balanced_biarc(a: PointTangent, b: PointTangent) -> Biarc:
    """Construct the proper balanced biarc interpolating the pair."""
    arcs = _balanced_arcs(a.point[None], a.tangent[None], b.point[None], b.tangent[None])
    return _biarc_view(*arcs[:5], pair=(a, b))


def eval_biarc(biarc: Biarc, s: float):
    """Position and unit tangent at arclength s in [0, total_length]."""
    total = biarc.total_length
    if s < -1e-12 * total or s > total * (1.0 + 1e-12):
        raise ValueError(f"arclength {s!r} outside [0, {total!r}]")
    s = min(max(s, 0.0), total)
    if s <= biarc.first.length:
        return biarc.first.at(s)
    return biarc.second.at(s - biarc.first.length)


def biarc_parameter(biarc: Biarc) -> float:
    """Normalized location of the matching point along the chord.

    For biarcs interpolating a slowly turning curve this lies in [1/4, 3/4].
    """
    a, b = biarc.pair
    d = b.point - a.point
    m = biarc.matching_point
    rel = m - a.point
    num = float(np.dot(a.tangent, d)) * float(np.dot(rel, rel))
    den = float(np.dot(a.tangent, rel)) * float(np.dot(d, d))
    if abs(den) < 1e-15 * float(np.dot(d, d)):
        raise ValueError("degenerate biarc-parameter denominator")
    return num / den
