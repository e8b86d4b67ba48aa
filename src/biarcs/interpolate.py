"""Closed biarc curves: assembly over a partition, global evaluation,
length-gate membership, and C^1 distance to the interpolated curve."""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .biarc import (
    ImproperPairError,
    IncompatiblePairError,
    PointTangent,
    build_balanced_biarc,
)
from .curve import CurveSpec, Partition, tangent_modulus


class BiarcCurveBuildError(ValueError):
    """Raised when a closed biarc chain cannot be assembled; carries the
    index of the offending segment when one is known."""

    def __init__(self, message: str, segment: Optional[int] = None):
        super().__init__(message)
        self.segment = segment


@dataclass(frozen=True)
class BiarcCurve:
    """A closed C^1 chain of balanced biarcs.

    ``source_params`` holds the partition nodes when the curve was built by
    interpolating a CurveSpec; it is required for C^1-distance measurements.
    """

    biarcs: tuple
    junction_points: np.ndarray
    junction_tangents: np.ndarray
    segment_lengths: np.ndarray
    offsets: np.ndarray
    source_params: Optional[np.ndarray] = None
    # flattened per-arc data for vectorized evaluation
    _arc_starts: np.ndarray = field(repr=False, default=None)
    _arc_dirs: np.ndarray = field(repr=False, default=None)
    _arc_khat: np.ndarray = field(repr=False, default=None)
    _arc_k: np.ndarray = field(repr=False, default=None)
    _arc_offsets: np.ndarray = field(repr=False, default=None)

    @property
    def n_segments(self) -> int:
        return len(self.biarcs)

    @property
    def total_length(self) -> float:
        return float(self.offsets[-1])


def _assemble(biarcs, points, tangents) -> BiarcCurve:
    points = np.asarray(points, dtype=float)
    tangents = np.asarray(tangents, dtype=float)
    lengths = np.array([b.total_length for b in biarcs])
    offsets = np.concatenate([[0.0], np.cumsum(lengths)])
    scale = max(1.0, float(offsets[-1]))
    # closure and junction continuity are inherited from the shared data;
    # re-check to catch construction bugs early
    for i, b in enumerate(biarcs):
        nxt = biarcs[(i + 1) % len(biarcs)]
        if np.linalg.norm(b.second.end - nxt.first.start) > 1e-9 * scale:
            raise BiarcCurveBuildError(f"junction {i} is not continuous", segment=i)
        if np.linalg.norm(b.second.end_tangent - nxt.first.direction) > 1e-9:
            raise BiarcCurveBuildError(f"junction {i} breaks the C1 join", segment=i)
    arcs = [a for b in biarcs for a in (b.first, b.second)]
    starts = np.array([a.start for a in arcs])
    dirs = np.array([a.direction for a in arcs])
    curvs = np.array([a.curvature for a in arcs])
    k = np.linalg.norm(curvs, axis=-1)
    khat = np.where(k[:, None] > 0, curvs / np.where(k[:, None] > 0, k[:, None], 1.0), 0.0)
    arc_lengths = np.array([a.length for a in arcs])
    arc_offsets = np.concatenate([[0.0], np.cumsum(arc_lengths)])
    return BiarcCurve(
        biarcs=tuple(biarcs),
        junction_points=points,
        junction_tangents=tangents,
        segment_lengths=lengths,
        offsets=offsets,
        _arc_starts=starts,
        _arc_dirs=dirs,
        _arc_khat=khat,
        _arc_k=k,
        _arc_offsets=arc_offsets,
    )


def from_junctions(points, tangents) -> BiarcCurve:
    """Assemble the closed balanced biarc chain through the given junction
    positions and unit tangents."""
    points = np.asarray(points, dtype=float)
    tangents = np.asarray(tangents, dtype=float)
    n = points.shape[0]
    if n < 3:
        raise BiarcCurveBuildError("need at least three junctions to close a chain")
    data = [PointTangent(points[i], tangents[i]) for i in range(n)]
    biarcs = []
    for i in range(n):
        a, b = data[i], data[(i + 1) % n]
        try:
            biarcs.append(build_balanced_biarc(a, b))
        except (ImproperPairError, IncompatiblePairError) as exc:
            raise BiarcCurveBuildError(f"segment {i}: {exc}", segment=i) from exc
    return _assemble(biarcs, points, tangents)


def build_biarc_curve(
    curve: CurveSpec,
    partition: Partition,
    modulus_bound: Optional[float] = None,
) -> BiarcCurve:
    """Interpolate an arclength-parametrized closed curve by balanced
    biarcs over the partition.

    The chain exists whenever every point-tangent pair is proper and not
    incompatibly cocircular, which is checked segment by segment. Passing
    ``modulus_bound`` additionally enforces the sampled tangent modulus of
    continuity at the largest gap to stay below the bound (1/2 is the
    regime in which the construction is guaranteed a priori).
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
    if modulus_bound is not None:
        omega = tangent_modulus(curve, partition.max_gap)
        if omega >= modulus_bound:
            raise BiarcCurveBuildError(
                f"tangent modulus {omega:.4f} at gap {partition.max_gap:.4g} "
                f"exceeds the bound {modulus_bound}"
            )
    s = partition.samples[:-1]
    points = curve.position(s)
    tangents = curve.derivative(s)
    tangents = tangents / np.linalg.norm(tangents, axis=-1, keepdims=True)
    try:
        out = from_junctions(points, tangents)
    except BiarcCurveBuildError as exc:
        raise BiarcCurveBuildError(
            f"{exc} (consider a finer partition; largest gap {partition.max_gap:.4g})",
            segment=exc.segment,
        ) from exc
    return replace(out, source_params=np.asarray(partition.samples, dtype=float))


def eval_biarc_curve(beta: BiarcCurve, s):
    """Position and unit tangent at arclength s, periodic in the total
    length. Accepts scalars or arrays."""
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    total = beta.total_length
    smod = np.mod(s, total)
    idx = np.searchsorted(beta._arc_offsets, smod, side="right") - 1
    idx = np.clip(idx, 0, len(beta._arc_k) - 1)
    local = smod - beta._arc_offsets[idx]
    k = beta._arc_k[idx]
    straight = k == 0.0
    phi = local * k
    sinp, cosp = np.sin(phi), np.cos(phi)
    rk = 1.0 / np.where(straight, 1.0, k)
    coef_dir = np.where(straight, local, rk * sinp)
    # r (1 - cos phi) written without its cancellation for small phi
    coef_nrm = np.where(straight, 0.0, 2.0 * rk * np.sin(0.5 * phi) ** 2)
    dirs = beta._arc_dirs[idx]
    khat = beta._arc_khat[idx]
    pos = beta._arc_starts[idx] + coef_dir[:, None] * dirs + coef_nrm[:, None] * khat
    tan = np.where(straight[:, None], dirs, cosp[:, None] * dirs + sinp[:, None] * khat)
    if scalar:
        return pos[0], tan[0]
    return pos, tan


def check_Bn(beta: BiarcCurve, L: float, n: int) -> bool:
    """Length gate: every biarc length within [L/(2n), 2L/n]."""
    if n != beta.n_segments:
        raise ValueError(f"expected {n} biarcs, curve has {beta.n_segments}")
    lam = beta.segment_lengths
    return bool(np.all(lam >= L / (2 * n)) and np.all(lam <= 2 * L / n))


def c1_distance(curve: CurveSpec, beta: BiarcCurve, grid: int) -> float:
    """sup over the grid of |curve - B| + |curve' - B'| where B traverses
    each biarc over the matching partition cell at constant rate."""
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
    pos_b, tan_b = eval_biarc_curve(beta, local)
    pos_g = curve.position(s)
    tan_g = curve.derivative(s)
    dpos = np.linalg.norm(pos_g - pos_b, axis=-1)
    dtan = np.linalg.norm(tan_g - tan_b * rate[:, None], axis=-1)
    return float((dpos + dtan).max())


def junctions_to_text(beta: BiarcCurve) -> str:
    """One line per junction: qx qy qz tx ty tz lambda, nine decimals."""
    buf = io.StringIO()
    for p, t, lam in zip(beta.junction_points, beta.junction_tangents, beta.segment_lengths):
        fields = [*p, *t, lam]
        buf.write(" ".join(f"{v:.9f}" for v in fields) + "\n")
    return buf.getvalue()


def junctions_from_text(text: str) -> BiarcCurve:
    """Rebuild a biarc curve from the junction text format.

    Tangents are renormalized (the format rounds to nine decimals); the
    stored segment lengths are informational and recomputed by the rebuild.
    """
    points, tangents = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise ValueError(f"junction line {lineno}: expected 7 fields, got {len(parts)}")
        vals = [float(p) for p in parts]
        points.append(vals[0:3])
        tangents.append(np.asarray(vals[3:6]) / np.linalg.norm(vals[3:6]))
    return from_junctions(np.array(points), np.array(tangents))
