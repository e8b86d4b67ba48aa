"""Closed biarc curves: assembly over a partition, the chain as a curve,
length-gate membership, and C^1 distance to the interpolated curve."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .biarc import UNIT_TOL, PairError, PointTangent, _balanced_arcs, _biarc_view, _eval_arcs
from .curve import CurveSpec, Partition


class BiarcCurveBuildError(ValueError):
    """Raised when a closed biarc chain cannot be assembled; carries the
    index of the offending segment when one is known."""

    def __init__(self, message: str, segment: Optional[int] = None):
        super().__init__(message)
        self.segment = segment


@dataclass(frozen=True)
class BiarcCurve:
    """A closed C^1 chain of balanced biarcs, held as its read-only arc arrays.

    Biarc i runs from junction i to junction i + 1 (mod n) and is made of
    arcs 2i and 2i + 1, the second starting at its matching point. Per arc,
    ``arc_starts``, ``arc_dirs``, ``arc_normals``, ``arc_k`` and
    ``arc_lengths`` hold the start point, unit start tangent, unit normal
    (zero on a straight arc), curvature and length. The rest is derived on
    access: the junction data, the biarc lengths (the sums `biarc._pair_arcs`
    forms, bit for bit), and the arclength at which each junction
    (``offsets``) and arc (``arc_offsets``) starts, plus the total length.

    ``source_params`` holds the partition nodes when the curve was built by
    interpolating a CurveSpec; it is required for C^1-distance measurements.
    ``spec`` is the chain as a CurveSpec, which every curve function takes.
    """

    arc_starts: np.ndarray = field(repr=False)
    arc_dirs: np.ndarray = field(repr=False)
    arc_normals: np.ndarray = field(repr=False)
    arc_k: np.ndarray = field(repr=False)
    arc_lengths: np.ndarray = field(repr=False)
    source_params: Optional[np.ndarray] = None

    @property
    def junction_points(self) -> np.ndarray:
        return self.arc_starts[::2]

    @property
    def junction_tangents(self) -> np.ndarray:
        return self.arc_dirs[::2]

    @property
    def segment_lengths(self) -> np.ndarray:
        return self.arc_lengths[::2] + self.arc_lengths[1::2]

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths)])

    @property
    def arc_offsets(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.arc_lengths)])

    @property
    def n_segments(self) -> int:
        return len(self.arc_k) // 2

    @property
    def total_length(self) -> float:
        return float(self.offsets[-1])

    @property
    def spec(self) -> CurveSpec:
        """The chain as an arclength-parametrized CurveSpec: position, unit
        tangent and curvature vector k (cos(ks) normal - sin(ks) dir) of the
        arc that holds s mod L, for s of any shape; its length table holds
        the arc breaks."""
        breaks = self.arc_offsets
        arcs = (self.arc_starts, self.arc_dirs, self.arc_normals, self.arc_k)

        def arcs_at(s):
            s = np.mod(np.asarray(s, dtype=float), breaks[-1])
            i = np.clip(np.searchsorted(breaks, s, side="right") - 1, 0, len(self.arc_k) - 1)
            return *(a[i] for a in arcs), s - breaks[i]

        def second_derivative(s):
            _, dirs, normals, k, local = arcs_at(s)
            phi = (k * local)[..., None]
            return k[..., None] * (np.cos(phi) * normals - np.sin(phi) * dirs)

        position, derivative = (lambda s, j=j: _eval_arcs(*arcs_at(s))[j] for j in (0, 1))
        return CurveSpec(position, derivative, second_derivative, np.column_stack([breaks, breaks]))

    @property
    def biarcs(self) -> tuple:
        """The chain as Biarc objects, a read-only view built on each access."""
        arcs = (self.arc_starts, self.arc_dirs, self.arc_normals, self.arc_k, self.arc_lengths)
        data = [PointTangent(p, t) for p, t in zip(self.junction_points, self.junction_tangents)]
        n = len(data)
        return tuple(
            _biarc_view(*(a[2 * i : 2 * i + 2] for a in arcs), pair=(data[i], data[(i + 1) % n]))
            for i in range(n)
        )


def from_junctions(points, tangents) -> BiarcCurve:
    """Assemble the closed balanced biarc chain through the given junction
    positions and unit tangents, (n, 3) arrays with n >= 3.

    Raises BiarcCurveBuildError, with ``segment`` set to the first failing
    junction or pair, when the input is malformed or a pair admits no
    balanced biarc (coincident, improper, or not closing).
    """
    points = np.asarray(points, dtype=float)
    tangents = np.asarray(tangents, dtype=float)
    if len(points) < 3:
        raise BiarcCurveBuildError("need at least three junctions to close a chain")
    if points.ndim != 2 or points.shape[1] != 3 or tangents.shape != points.shape:
        raise BiarcCurveBuildError("junction points and tangents must be matching (n, 3) arrays")
    good = np.isfinite(points).all(axis=1)
    good &= np.abs(np.linalg.norm(tangents, axis=1) - 1.0) <= UNIT_TOL
    if not good.all():
        i = int(np.argmin(good))
        raise BiarcCurveBuildError(
            f"junction {i}: point not finite or tangent not unit length", segment=i
        )
    try:
        arcs = _balanced_arcs(
            points, tangents, np.roll(points, -1, axis=0), np.roll(tangents, -1, axis=0)
        )
    except PairError as exc:
        raise BiarcCurveBuildError(f"segment {exc.index}: {exc}", segment=exc.index) from exc
    for a in arcs[:5]:
        a.flags.writeable = False
    return BiarcCurve(*arcs[:5])


def build_biarc_curve(curve: CurveSpec, partition: Partition) -> BiarcCurve:
    """Interpolate an arclength-parametrized closed curve by balanced
    biarcs over the partition.

    The chain exists whenever every point-tangent pair is proper and its
    biarc closes within `biarc.JOIN_TOL`, which is checked segment by
    segment.
    """
    if not curve.is_arclength:
        raise BiarcCurveBuildError("source curve must be arclength-parametrized")
    L = curve.length
    if abs(partition.period - L) > 1e-9 * L:
        raise BiarcCurveBuildError(
            f"partition covers {partition.period!r} but the curve has length {L!r}"
        )
    if partition.max_gap > L / 2 + 1e-12:
        raise BiarcCurveBuildError("partition gap exceeds half the curve length")
    s = partition.samples[:-1]
    points = curve.position(s)
    tangents = curve.derivative(s)
    tangents = tangents / np.linalg.norm(tangents, axis=-1, keepdims=True)
    try:
        out = from_junctions(points, tangents)
    except BiarcCurveBuildError as exc:
        raise BiarcCurveBuildError(
            f"{exc} (consider a finer partition, a larger n; largest gap {partition.max_gap:.4g})",
            segment=exc.segment,
        ) from exc
    return replace(out, source_params=np.asarray(partition.samples, dtype=float))


def check_Bn(beta: BiarcCurve, L: float) -> bool:
    """Length gate: each of the n biarc lengths within [L/(2n), 2L/n]."""
    n = beta.n_segments
    lam = beta.segment_lengths
    return bool(np.all(lam >= L / (2 * n)) and np.all(lam <= 2 * L / n))


def c1_distance(curve: CurveSpec, beta: BiarcCurve, grid: int) -> float:
    """max over the grid of the pointwise sum |curve - B| + |curve' - B'|
    (the `mollify` command sums the two maxima instead), B traversing each
    biarc over its partition cell at constant rate through ``beta.spec``."""
    if beta.source_params is None:
        raise ValueError("biarc curve was not built from a partition of the curve")
    n = beta.n_segments
    if grid < 2 * n:
        raise ValueError(f"grid {grid} under-resolves {n} segments (need >= {2 * n})")
    nodes = beta.source_params
    L = curve.length
    s = np.linspace(0.0, L, grid, endpoint=False)
    seg = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, n - 1)
    gaps = np.diff(nodes)
    rate = beta.segment_lengths[seg] / gaps[seg]
    local = beta.offsets[seg] + (s - nodes[seg]) * rate
    chain = beta.spec
    dpos = np.linalg.norm(curve.position(s) - chain.position(local), axis=-1)
    dtan = np.linalg.norm(curve.derivative(s) - chain.derivative(local) * rate[:, None], axis=-1)
    return float((dpos + dtan).max())


def junctions_to_text(beta: BiarcCurve) -> str:
    """One line per junction: qx qy qz tx ty tz lambda, each field the
    shortest text that reads back as the same float."""
    rows = np.column_stack([beta.junction_points, beta.junction_tangents, beta.segment_lengths])
    return "".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist())


def junctions_from_text(text: str) -> BiarcCurve:
    """Rebuild a biarc curve from the junction text format.

    Points are read back exactly. Tangents are renormalized, which moves a
    written unit tangent by about an ulp, so the stored segment lengths are
    informational and recomputed by the rebuild; each must still be finite
    and positive. A malformed line raises ValueError naming the line, a
    chain that cannot be built BiarcCurveBuildError.
    """
    points, tangents = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise ValueError(f"junction line {lineno}: expected 7 fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"junction line {lineno}: {exc}") from None
        if not all(map(math.isfinite, vals[0:3])):
            raise ValueError(f"junction line {lineno}: point must be finite")
        if not 0.0 < vals[6] < math.inf:
            raise ValueError(f"junction line {lineno}: segment length must be finite and positive")
        norm = np.linalg.norm(vals[3:6])
        if not 0.0 < norm < math.inf:
            raise ValueError(f"junction line {lineno}: tangent must be nonzero and finite")
        points.append(vals[0:3])
        tangents.append(np.asarray(vals[3:6]) / norm)
    if len(points) < 3:
        raise ValueError(f"expected at least three junction lines, got {len(points)}")
    return from_junctions(np.array(points), np.array(tangents))
