"""Simulated annealing for discrete tangent-point energies on closed
biarc configurations.

Moves perturb one junction at a time and rebuild only the two adjacent
biarcs; a move is rejected outright when a rebuilt pair is not
constructible, the length gate fails, junctions get too close, or the
configuration's polygonal thickness proxy drops below half its initial
value (a crude guard against leaving the knot class).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .biarc import ImproperPairError, IncompatiblePairError, PointTangent, build_balanced_biarc
from .energy import pair_stats
from .interpolate import BiarcCurve, from_junctions


@dataclass
class AnnealConfig:
    q: float
    n: int
    L: float
    steps: int = 20000
    initial_temperature: Optional[float] = None  # default: 0.1 x initial energy
    cooling_rate: float = 0.995
    sigma_position: float = 0.05  # times L/n
    sigma_tangent: float = 0.05  # radians
    min_pair_distance: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling rate must lie in (0, 1)")
        if self.sigma_position <= 0 or self.sigma_tangent <= 0:
            raise ValueError("move scales must be positive")
        if self.min_pair_distance <= 0:
            raise ValueError("min_pair_distance must be positive")
        if self.q < 2:
            raise ValueError("energy power q must be >= 2")


@dataclass
class AnnealTrace:
    """Per-step records (step, energy, temperature, accepted) where energy
    is the chain energy after the accept/reject decision, plus the best
    configuration seen."""

    records: np.ndarray
    best_energy: float
    best_points: np.ndarray
    best_tangents: np.ndarray

    @property
    def accepted(self) -> np.ndarray:
        return self.records[self.records[:, 3] > 0.5]


def _candidate_energy(points, tangents, lam, cfg: AnnealConfig, quotient_ceiling: float):
    """Energy of a candidate configuration from one pair-kernel pass, or
    None when the move is rejected: junctions closer than
    ``cfg.min_pair_distance`` (coincident ones included) or a thickness
    proxy below half its initial value, i.e. a largest junction quotient
    above ``quotient_ceiling``."""
    try:
        stats = pair_stats(points, tangents, lam, cfg.q)
    except ValueError:  # coincident junction points
        return None
    if stats.min_distance < cfg.min_pair_distance or stats.max_quotient > quotient_ceiling:
        return None
    return stats.energy


def _rebuild_segments(points, tangents, j, n):
    """Lengths of the two biarcs adjacent to junction j, or None when a
    pair is not constructible."""
    prev = (j - 1) % n
    nxt = (j + 1) % n
    try:
        b_prev = build_balanced_biarc(
            PointTangent(points[prev], tangents[prev]), PointTangent(points[j], tangents[j])
        )
        b_next = build_balanced_biarc(
            PointTangent(points[j], tangents[j]), PointTangent(points[nxt], tangents[nxt])
        )
    except (ImproperPairError, IncompatiblePairError, ValueError, RuntimeError):
        return None
    return b_prev.total_length, b_next.total_length


def anneal_discrete(initial: BiarcCurve, cfg: AnnealConfig) -> tuple[BiarcCurve, AnnealTrace]:
    """Search for low-energy junction configurations near the initial one.

    Returns the best configuration found (rebuilt, so all chain invariants
    are re-validated) together with the annealing trace. With a fixed seed
    the run is deterministic.
    """
    n = initial.n_segments
    if cfg.n != n:
        raise ValueError(f"config expects n={cfg.n} but the curve has {n} segments")
    lam = initial.segment_lengths.copy()
    lo, hi = cfg.L / (2 * n), 2 * cfg.L / n
    if lam.min() < lo or lam.max() > hi:
        raise ValueError("initial configuration fails the length gate")
    points = initial.junction_points.copy()
    tangents = initial.junction_tangents.copy()
    stats = pair_stats(points, tangents, lam, cfg.q)
    if stats.min_distance < cfg.min_pair_distance:
        raise ValueError("initial junctions are closer than min_pair_distance")

    rng = np.random.default_rng(cfg.seed)
    energy = stats.energy
    temperature = (
        cfg.initial_temperature if cfg.initial_temperature is not None else 0.1 * energy
    )
    # the thickness proxy is the inverse of the largest junction quotient
    quotient_ceiling = 2.0 * stats.max_quotient
    sigma_q = cfg.sigma_position * cfg.L / n

    best_energy = energy
    best_points = points.copy()
    best_tangents = tangents.copy()
    records = np.empty((cfg.steps, 4))

    for step in range(cfg.steps):
        j = int(rng.integers(n))
        cand_points = points.copy()
        cand_tangents = tangents.copy()
        cand_points[j] = points[j] + rng.normal(scale=sigma_q, size=3)
        t = tangents[j]
        kick = rng.normal(scale=cfg.sigma_tangent, size=3)
        kick -= np.dot(kick, t) * t
        cand_tangents[j] = (t + kick) / np.linalg.norm(t + kick)

        accepted = False
        rebuilt = _rebuild_segments(cand_points, cand_tangents, j, n)
        if rebuilt is not None:
            cand_lam = lam.copy()
            cand_lam[(j - 1) % n], cand_lam[j] = rebuilt
            cand_energy = None
            if cand_lam.min() >= lo and cand_lam.max() <= hi:
                cand_energy = _candidate_energy(
                    cand_points, cand_tangents, cand_lam, cfg, quotient_ceiling
                )
            if cand_energy is not None:
                delta = cand_energy - energy
                if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                    points, tangents, lam = cand_points, cand_tangents, cand_lam
                    energy = cand_energy
                    accepted = True
                    if energy < best_energy:
                        best_energy = energy
                        best_points = points.copy()
                        best_tangents = tangents.copy()
        records[step] = (step, energy, temperature, float(accepted))
        temperature *= cfg.cooling_rate

    best = from_junctions(best_points, best_tangents)
    trace = AnnealTrace(
        records=records,
        best_energy=best_energy,
        best_points=best_points,
        best_tangents=best_tangents,
    )
    return best, trace


def trace_to_csv(trace: AnnealTrace) -> str:
    buf = io.StringIO()
    buf.write("step,energy,temperature,accepted\n")
    for step, energy, temperature, accepted in trace.records:
        buf.write(f"{int(step)},{energy:.12g},{temperature:.12g},{int(accepted)}\n")
    return buf.getvalue()
