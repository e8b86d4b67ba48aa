"""Point-tangent pairs, the balanced matching point, and balanced biarcs.

A biarc interpolates a pair of point-tangent data (p0, t0), (p1, t1) with
two circular arcs joined C^1 at a matching point m. The admissible matching
points of a non-degenerate pair form a circle through p0 and p1, tangent at
p0 to u = normalize(t0 + t1*), where t1* is t1 reflected at the unit chord
e = (p1 - p0) / |p1 - p0|. We always pick the *balanced* point, equidistant
from both data points: the angular midpoint of the subarc running from p0
to p1. It lies on the bisector of the chord at the sagitta of that subarc,

    m = (p0 + p1) / 2 + (|p1 - p0| / 2) (u - (u.e) e) / (1 + u.e),

a closed form without branches; 1 + u.e > 1 for every proper pair.

`_balanced_arcs` builds the biarcs of n pairs in one batched pass over
(n, 3) arrays into flat arc arrays; every chain and every single biarc is
built by it, and `_eval_arcs` evaluates their arcs. `PointTangent`, `Arc`
and `Biarc` are single-pair views of those arrays. The one other builder is
`_move_lengths`, the annealer's rebuild of the two biarcs next to a moved
junction: the same operations on Python floats, giving the same lengths
bit for bit and failing on the same pairs, because at two pairs numpy's
per-call cost outweighs the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Largest deviation from 1 of the norm of a unit tangent.
UNIT_TOL = 1e-9
# Equality tolerance for classification tests on unit vectors.
CLASSIFY_TOL = 1e-9
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


class IncompatiblePairError(PairError):
    """Cocircular pair with opposing orientations: no balanced matching point."""


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


def reflect_about(e, v) -> np.ndarray:
    """Reflect v at the axis spanned by the unit vector e: (2 e e^T - Id) v."""
    e = _require_unit(e)
    v = _as_vec3(v)
    return 2.0 * np.dot(e, v) * e - v


class PairClass(Enum):
    GENERIC = "generic"
    COCIRCULAR_COMPATIBLE = "cocircular_compatible"
    COCIRCULAR_INCOMPATIBLE = "cocircular_incompatible"
    EQUAL_TANGENTS_TRANSVERSAL = "equal_tangents_transversal"
    EQUAL_TANGENTS_PERPENDICULAR = "equal_tangents_perpendicular"


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


def _eval_arcs(starts, dirs, normals, k, local):
    """Position and unit tangent at arclength ``local`` along arcs given by
    start point, unit start tangent, unit normal (zero on a straight arc)
    and curvature k. Arguments broadcast: per-arc arrays of shape (m, 3) and
    (m,), or a single arc's vectors with ``local`` of any shape."""
    k = np.asarray(k, dtype=float)
    local = np.asarray(local, dtype=float)
    phi = local * k
    sinp = np.sin(phi)
    straight = k == 0.0
    rk = 1.0 / np.where(straight, 1.0, k)
    along = np.where(straight, local, rk * sinp)
    # r (1 - cos phi) written without its cancellation for small phi
    bend = 2.0 * rk * np.sin(0.5 * phi) ** 2
    pos = starts + along[..., None] * dirs + bend[..., None] * normals
    tan = np.cos(phi)[..., None] * dirs + sinp[..., None] * normals
    return pos, tan


def _dot(a, b):
    # On 3-vector rows this sums as (a0 b0 + a2 b2) + a1 b1, not left to
    # right: measured on numpy 2.4 for x86-64, whose einsum keeps two-lane
    # partial sums (it matched 100k random rows, left to right only 70%).
    # The scalar rebuild `_move_lengths` writes its dot products in this
    # order to give the bits of `_balanced_arcs`.
    return np.einsum("ij,ij->i", a, b)


def _interleave(a, b):
    """Rows a_0, b_0, a_1, b_1, ... of two arrays of one shape."""
    out = np.empty((2 * len(a),) + a.shape[1:], dtype=np.result_type(a, b))
    out[0::2] = a
    out[1::2] = b
    return out


def _arcs_to(starts, dirs, ends):
    """Unit normals, curvatures and lengths of the arcs that leave each start
    along its unit direction and end at the matching end."""
    chord = ends - starts
    chord2 = _dot(chord, chord)
    along = _dot(chord, dirs)
    perp = chord - along[:, None] * dirs
    # project once more: on a nearly straight arc perp is tiny, and the
    # rounding of the first projection leaves a residue along dirs that is
    # large next to it
    perp -= _dot(perp, dirs)[:, None] * dirs
    h = np.sqrt(_dot(perp, perp))
    normals = perp / np.where(h > 0.0, h, 1.0)[:, None]
    # radius chord2 / 2h; the arc turns twice its tangent-chord angle
    lengths = np.where(h > 0.0, chord2 * np.arctan2(h, along) / h, along)
    return normals, 2.0 * h / chord2, lengths


def _balanced_arcs(p0, t0, p1, t1):
    """Balanced biarcs through the n pairs (p0, t0) -> (p1, t1), each given
    as an (n, 3) array.

    Returns the flat arrays (starts, dirs, normals, k, lengths) of the 2n
    arcs in chain order, read by `_eval_arcs`: arc 2i is the first arc of
    pair i, arc 2i + 1 its second, and starts[2i + 1] its matching point.
    The n biarc lengths come last. Raises the PairError of the first pair
    that is improper, incompatible, or whose arcs fail to meet within
    JOIN_TOL, with ``index`` set to that pair.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        d = p1 - p0
        dist = np.sqrt(_dot(d, d))
        e = d / dist[:, None]
        w = t0 + 2.0 * _dot(e, t1)[:, None] * e - t1
        wlen = np.sqrt(_dot(w, w))
        u = w / wlen[:, None]
        ue = _dot(u, e)
        m = 0.5 * (p0 + p1) + (0.5 * dist / (1.0 + ue))[:, None] * (u - ue[:, None] * e)
        # the second arc leaves m along t1 reflected at its chord
        c = p1 - m
        t_m = 2.0 * (_dot(c, t1) / _dot(c, c))[:, None] * c - t1
        starts, dirs, ends = _interleave(p0, m), _interleave(t0, t_m), _interleave(m, p1)
        normals, k, lengths = _arcs_to(starts, dirs, ends)
        total = lengths[0::2] + lengths[1::2]
        # each arc must end where the next piece starts: the first at m
        # along t_m, the second at p1 along t1
        end, end_tan = _eval_arcs(starts, dirs, normals, k, lengths)
        gap = np.sqrt(_dot(end - ends, end - ends)).reshape(-1, 2).max(axis=1)
        miss = end_tan - _interleave(t_m, t1)
        turn = np.sqrt(_dot(miss, miss)).reshape(-1, 2).max(axis=1)
        proper = (_dot(d, t0) > 0.0) & (_dot(d, t1) > 0.0)
        ok = proper & (wlen > CLASSIFY_TOL) & (gap <= JOIN_TOL * total) & (turn <= JOIN_TOL)
    if not ok.all():
        i = int(np.argmin(ok))
        if dist[i] == 0.0:
            raise ImproperPairError("point-tangent pair has coincident points", i)
        if not proper[i]:
            raise ImproperPairError(
                "pair is not proper: both tangents must make a positive inner "
                "product with the chord",
                i,
            )
        if not wlen[i] > CLASSIFY_TOL:
            raise IncompatiblePairError(
                "cocircular pair with incompatible orientations has no balanced "
                "matching point",
                i,
            )
        raise PairError(
            f"biarc join failed to close: position gap {gap[i]:.3e}, tangent "
            f"mismatch {turn[i]:.3e}",
            i,
        )
    return starts, dirs, normals, k, lengths, total


# The scalar rebuild below repeats `_balanced_arcs` operation by operation on
# Python floats: IEEE arithmetic as numpy's elementwise ufuncs, math.sqrt,
# sin and cos rounding as numpy's do, and every dot product written out in
# `_dot`'s order (x x' + z z') + y y'. The arc angles come from np.arctan2,
# which math.atan2 does not match. A division by zero or a math domain error
# happens only where the batched pass gets an inf or NaN and fails a check.


def _matching(p0, t0, p1, t1, index):
    """Matching point m and its tangent t_m of the pair, as `_balanced_arcs`
    computes them, after its properness and `wlen` checks; a failed check
    raises with the given pair ``index``."""
    (x0, y0, z0), (a0, b0, c0), (x1, y1, z1), (a1, b1, c1) = p0, t0, p1, t1
    dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
    if not ((dx * a0 + dz * c0) + dy * b0 > 0.0 and (dx * a1 + dz * c1) + dy * b1 > 0.0):
        raise ImproperPairError("pair is not proper", index)
    dist = math.sqrt((dx * dx + dz * dz) + dy * dy)
    ex, ey, ez = dx / dist, dy / dist, dz / dist
    s = 2.0 * ((ex * a1 + ez * c1) + ey * b1)
    wx, wy, wz = (a0 + s * ex) - a1, (b0 + s * ey) - b1, (c0 + s * ez) - c1
    wlen = math.sqrt((wx * wx + wz * wz) + wy * wy)
    if not wlen > CLASSIFY_TOL:
        raise IncompatiblePairError("cocircular pair with incompatible orientations", index)
    ux, uy, uz = wx / wlen, wy / wlen, wz / wlen
    ue = (ux * ex + uz * ez) + uy * ey
    r = 0.5 * dist / (1.0 + ue)
    mx = 0.5 * (x0 + x1) + r * (ux - ue * ex)
    my = 0.5 * (y0 + y1) + r * (uy - ue * ey)
    mz = 0.5 * (z0 + z1) + r * (uz - ue * ez)
    cx, cy, cz = x1 - mx, y1 - my, z1 - mz
    g = 2.0 * (((cx * a1 + cz * c1) + cy * b1) / ((cx * cx + cz * cz) + cy * cy))
    return (mx, my, mz), (g * cx - a1, g * cy - b1, g * cz - c1)


def _arc_frame(start, direction, end):
    """chord^2, along, h, unit normal and curvature of the arc from start
    along direction to end, as `_arcs_to` computes them."""
    (sx, sy, sz), (dx, dy, dz), (ex, ey, ez) = start, direction, end
    cx, cy, cz = ex - sx, ey - sy, ez - sz
    chord2 = (cx * cx + cz * cz) + cy * cy
    along = (cx * dx + cz * dz) + cy * dy
    px, py, pz = cx - along * dx, cy - along * dy, cz - along * dz
    back = (px * dx + pz * dz) + py * dy
    px, py, pz = px - back * dx, py - back * dy, pz - back * dz
    h = math.sqrt((px * px + pz * pz) + py * py)
    hn = h if h > 0.0 else 1.0
    return chord2, along, h, (px / hn, py / hn, pz / hn), 2.0 * h / chord2


def _arc_closes(start, direction, normal, k, length, end, end_tangent, gap_tol):
    """Whether the arc ends within gap_tol of end and JOIN_TOL of
    end_tangent, evaluated as `_eval_arcs` does."""
    (sx, sy, sz), (dx, dy, dz), (nx, ny, nz) = start, direction, normal
    phi = length * k
    sinp = math.sin(phi)
    straight = k == 0.0
    rk = 1.0 / (1.0 if straight else k)
    along = length if straight else rk * sinp
    half = math.sin(0.5 * phi)
    bend = 2.0 * rk * (half * half)
    cosp = math.cos(phi)
    gx = ((sx + along * dx) + bend * nx) - end[0]
    gy = ((sy + along * dy) + bend * ny) - end[1]
    gz = ((sz + along * dz) + bend * nz) - end[2]
    mx = (cosp * dx + sinp * nx) - end_tangent[0]
    my = (cosp * dy + sinp * ny) - end_tangent[1]
    mz = (cosp * dz + sinp * nz) - end_tangent[2]
    return (
        math.sqrt((gx * gx + gz * gz) + gy * gy) <= gap_tol
        and math.sqrt((mx * mx + mz * mz) + my * my) <= JOIN_TOL
    )


def _move_lengths(points, tangents):
    """Lengths of the balanced biarcs from junction 0 to 1 and from 1 to 2
    of three consecutive junctions, given as sequences of three points and
    three unit tangents, each a sequence of 3 floats.

    Bit for bit the biarc lengths `_balanced_arcs` gives for these two
    pairs, from Python floats and one np.arctan2 call; it raises a
    PairError on exactly the pairs where `_balanced_arcs` raises, with
    ``index`` at a failing pair (the first one it checks, not always the
    lower one). Only an anneal move calls it; chains go through
    `_balanced_arcs`.
    """
    (p0, p1, p2), (t0, t1, t2) = points, tangents
    try:
        m0, s0 = _matching(p0, t0, p1, t1, 0)
        m1, s1 = _matching(p1, t1, p2, t2, 1)
        # start, direction, end and end tangent of the four arcs in order
        arcs = ((p0, t0, m0, s0), (m0, s0, p1, t1), (p1, t1, m1, s1), (m1, s1, p2, t2))
        frames = [_arc_frame(start, direction, end) for start, direction, end, _ in arcs]
        angles = np.arctan2([f[2] for f in frames], [f[1] for f in frames]).tolist()
        lengths = [
            chord2 * angle / h if h > 0.0 else along
            for (chord2, along, h, _, _), angle in zip(frames, angles)
        ]
        totals = (lengths[0] + lengths[1], lengths[2] + lengths[3])
        for i in range(4):
            start, direction, end, end_tangent = arcs[i]
            normal, k = frames[i][3:]
            gap_tol = JOIN_TOL * totals[i // 2]
            if not _arc_closes(start, direction, normal, k, lengths[i], end, end_tangent, gap_tol):
                raise PairError("biarc join failed to close", i // 2)
    except PairError:
        raise
    except (ZeroDivisionError, ValueError) as exc:  # ValueError: math domain error
        raise PairError(f"biarc is not finite: {exc}") from exc
    return totals


def _biarc_view(starts, dirs, normals, k, lengths, pair) -> Biarc:
    """The Biarc made of arcs 0 and 1 of the given flat arc arrays."""
    first, second = (
        Arc(starts[j], dirs[j], k[j] * normals[j], float(lengths[j])) for j in (0, 1)
    )
    return Biarc(first=first, second=second, matching_point=starts[1], pair=pair)


def classify_pair(a: PointTangent, b: PointTangent) -> PairClass:
    """Classify a point-tangent pair by its matching-point locus.

    Equal-tangent pairs are classified first: on the overlap (both tangents
    parallel to the chord) the locus is the chord's line, which the
    equal-tangent classes describe.
    """
    d = b.point - a.point
    dist = np.linalg.norm(d)
    if dist == 0.0:
        raise ValueError("point-tangent pair has coincident points")
    e = d / dist
    t0, t1 = a.tangent, b.tangent
    if np.linalg.norm(t0 - t1) <= CLASSIFY_TOL:
        if abs(float(np.dot(t0, e))) <= CLASSIFY_TOL:
            return PairClass.EQUAL_TANGENTS_PERPENDICULAR
        return PairClass.EQUAL_TANGENTS_TRANSVERSAL
    t1s = reflect_about(e, t1)
    if np.linalg.norm(t0 - t1s) <= CLASSIFY_TOL:
        return PairClass.COCIRCULAR_COMPATIBLE
    if np.linalg.norm(t0 + t1s) <= CLASSIFY_TOL:
        return PairClass.COCIRCULAR_INCOMPATIBLE
    return PairClass.GENERIC


def build_balanced_biarc(a: PointTangent, b: PointTangent) -> Biarc:
    """Construct the proper balanced biarc interpolating the pair."""
    arcs = _balanced_arcs(a.point[None], a.tangent[None], b.point[None], b.tangent[None])
    return _biarc_view(*arcs[:5], pair=(a, b))


def balanced_matching_point(a: PointTangent, b: PointTangent) -> np.ndarray:
    """The unique matching point on the preferred subarc equidistant from
    both data points."""
    return build_balanced_biarc(a, b).matching_point


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
