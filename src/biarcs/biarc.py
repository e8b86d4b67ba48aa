"""Point-tangent pairs, matching-point selection, and balanced biarcs.

A biarc interpolates a pair of point-tangent data with two circular arcs
joined C^1 at a matching point m. The admissible matching points of a
non-degenerate pair form a circle through the two data points; we always
pick the *balanced* point, equidistant from both, on the preferred subarc
running from the first point to the second. That point is the angular
midpoint of the subarc, so the selection is closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geom import as_vec3, norm, reflect_about, require_unit

# Equality tolerance for classification tests on unit vectors.
CLASSIFY_TOL = 1e-9
# Below this angle between the preferred tangent and the chord the
# matching-point circle degenerates to the chord itself.
NEAR_STRAIGHT_ANGLE = 1e-7


class ImproperPairError(ValueError):
    """The pair's tangents do not both point forward along the chord."""


class IncompatiblePairError(ValueError):
    """Cocircular pair with opposing orientations: no balanced matching point."""


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
        object.__setattr__(self, "point", as_vec3(self.point))
        object.__setattr__(self, "tangent", require_unit(self.tangent))
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
        object.__setattr__(self, "start", as_vec3(self.start))
        object.__setattr__(self, "direction", require_unit(self.direction))
        object.__setattr__(self, "curvature", as_vec3(self.curvature))
        if abs(float(np.dot(self.direction, self.curvature))) > 1e-9 * max(
            1.0, norm(self.curvature)
        ):
            raise ValueError("curvature vector must be perpendicular to the direction")
        if not self.length > 0.0:
            raise ValueError("arc length must be positive")

    def at(self, s):
        """Position and unit tangent at arclength s (scalar or array)."""
        s = np.asarray(s, dtype=float)
        k = norm(self.curvature)
        if k == 0.0:
            pos = self.start + np.multiply.outer(s, self.direction)
            tan = np.broadcast_to(self.direction, s.shape + (3,)).copy()
            return pos, tan
        r = 1.0 / k
        khat = self.curvature * r
        phi = s * k
        c, sn = np.cos(phi), np.sin(phi)
        # r (1 - cos phi) written without its cancellation for small phi
        pos = (
            self.start
            + np.multiply.outer(r * sn, self.direction)
            + np.multiply.outer(2.0 * r * np.sin(0.5 * phi) ** 2, khat)
        )
        tan = np.multiply.outer(c, self.direction) + np.multiply.outer(sn, khat)
        return pos, tan

    def curvature_at(self, s) -> np.ndarray:
        k = norm(self.curvature)
        if k == 0.0:
            return np.zeros(3)
        khat = self.curvature / k
        phi = float(s) * k
        return k * (-math.sin(phi) * self.direction + math.cos(phi) * khat)

    @property
    def end(self) -> np.ndarray:
        return self.at(self.length)[0]

    @property
    def end_tangent(self) -> np.ndarray:
        return self.at(self.length)[1]

    def reversed(self) -> "Arc":
        p_end, t_end = self.at(self.length)
        return Arc(
            start=p_end,
            direction=-t_end / norm(t_end),
            curvature=self.curvature_at(self.length),
            length=self.length,
        )


@dataclass(frozen=True)
class Biarc:
    first: Arc
    second: Arc
    matching_point: np.ndarray
    pair: tuple[PointTangent, PointTangent]

    @property
    def total_length(self) -> float:
        return self.first.length + self.second.length


def _chord_frame(a: PointTangent, b: PointTangent):
    d = b.point - a.point
    dist = norm(d)
    if dist == 0.0:
        raise ValueError("point-tangent pair has coincident points")
    e = d / dist
    return d, dist, e


def classify_pair(a: PointTangent, b: PointTangent) -> PairClass:
    """Classify a point-tangent pair by its matching-point locus.

    Equal-tangent pairs are classified first: on the overlap (both tangents
    parallel to the chord) the locus is the chord's line, which the
    equal-tangent classes describe.
    """
    d, dist, e = _chord_frame(a, b)
    t0, t1 = a.tangent, b.tangent
    if norm(t0 - t1) <= CLASSIFY_TOL:
        if abs(float(np.dot(t0, e))) <= CLASSIFY_TOL:
            return PairClass.EQUAL_TANGENTS_PERPENDICULAR
        return PairClass.EQUAL_TANGENTS_TRANSVERSAL
    t1s = reflect_about(e, t1)
    if norm(t0 - t1s) <= CLASSIFY_TOL:
        return PairClass.COCIRCULAR_COMPATIBLE
    if norm(t0 + t1s) <= CLASSIFY_TOL:
        return PairClass.COCIRCULAR_INCOMPATIBLE
    return PairClass.GENERIC


def is_proper(a: PointTangent, b: PointTangent) -> bool:
    d = b.point - a.point
    return float(np.dot(d, a.tangent)) > 0.0 and float(np.dot(d, b.tangent)) > 0.0


def _require_constructible(a: PointTangent, b: PointTangent):
    d, dist, e = _chord_frame(a, b)
    if not is_proper(a, b):
        raise ImproperPairError(
            "pair is not proper: both tangents must make a positive inner "
            "product with the chord"
        )
    t1s = reflect_about(e, b.tangent)
    if norm(a.tangent + t1s) <= CLASSIFY_TOL:
        raise IncompatiblePairError(
            "cocircular pair with incompatible orientations has no balanced "
            "matching point"
        )
    return d, dist, e, t1s


def balanced_matching_point(a: PointTangent, b: PointTangent) -> np.ndarray:
    """The unique matching point on the preferred subarc equidistant from
    both data points."""
    d, dist, e, t1s = _require_constructible(a, b)
    w = a.tangent + t1s
    u = w / norm(w)
    # sin of the angle between the subarc tangent at a.point and the chord
    sin_angle = norm(np.cross(u, e))
    if sin_angle < NEAR_STRAIGHT_ANGLE:
        # matching-point circle degenerates to the chord; balance at midpoint
        return 0.5 * (a.point + b.point)
    perp = d - float(np.dot(d, u)) * u
    v = perp / norm(perp)
    r = dist * dist / (2.0 * float(np.dot(d, v)))
    center = a.point + r * v
    rho0 = a.point - center
    x1 = float(np.dot(b.point - center, rho0)) / (r * r)
    y1 = float(np.dot(b.point - center, u)) / r
    theta1 = math.atan2(y1, x1) % (2.0 * math.pi)
    # the balanced point is the angular midpoint of the subarc from a to b
    half = 0.5 * theta1
    return center + math.cos(half) * rho0 + math.sin(half) * r * u


def _arc_between(p: np.ndarray, u: np.ndarray, target: np.ndarray) -> Arc:
    """Unique arc starting at p with tangent u and ending at target."""
    chord = target - p
    clen = norm(chord)
    if clen == 0.0:
        raise ValueError("arc endpoints coincide")
    along = float(np.dot(chord, u))
    perp = chord - along * u
    h = norm(perp)
    if h <= 1e-14 * clen:
        if along <= 0.0:
            raise ValueError("degenerate straight arc pointing away from its target")
        return Arc(start=p, direction=u, curvature=np.zeros(3), length=along)
    nhat = perp / h
    radius = clen * clen / (2.0 * h)
    # tangent-chord angle is half the turn of the arc
    alpha = 2.0 * math.atan2(h, along)
    return Arc(start=p, direction=u, curvature=nhat / radius, length=radius * alpha)


def build_balanced_biarc(a: PointTangent, b: PointTangent) -> Biarc:
    """Construct the proper balanced biarc interpolating the pair."""
    m = balanced_matching_point(a, b)
    first = _arc_between(a.point, a.tangent, m)
    second = _arc_between(b.point, -b.tangent, m).reversed()
    mismatch = norm(first.end_tangent - second.direction)
    if mismatch > 1e-8:
        raise RuntimeError(
            f"biarc join failed to close: tangent mismatch {mismatch:.3e} at the "
            "matching point"
        )
    return Biarc(first=first, second=second, matching_point=m, pair=(a, b))


def eval_biarc(biarc: Biarc, s: float):
    """Position and unit tangent at arclength s in [0, total_length]."""
    total = biarc.total_length
    if s < -1e-12 * total or s > total * (1.0 + 1e-12):
        raise ValueError(f"arclength {s!r} outside [0, {total!r}]")
    s = min(max(s, 0.0), total)
    if s <= biarc.first.length:
        pos, tan = biarc.first.at(s)
    else:
        pos, tan = biarc.second.at(s - biarc.first.length)
    return pos, tan


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
