"""Simulated annealing for discrete tangent-point energies on closed
biarc configurations.

Moves perturb one junction at a time and rebuild only the two adjacent
biarcs, with the chain build's own construction run on Python floats
(`biarc._move_lengths`: the lengths `from_junctions` gives, bit for bit).
A move is rejected outright when a rebuilt pair is not constructible, the
length gate fails, junctions get too close, or the configuration's
polygonal thickness proxy drops below half its initial value (a crude
guard against leaving the knot class).

The run keeps every pair term x_ij^q in an (n, n) table, 8 n^2 bytes,
filled once by the pair kernel. A move rewrites one row and one column of
it, so a step costs O(n) plus a matrix-vector product for the energy
instead of a full pair-kernel pass; at n <= 181 the energies are the ones
`pair_stats` gives, bit for bit.

The schedule and the move scales are constants, in units of the run
itself: the temperature starts at INITIAL_TEMPERATURE times the initial
energy and falls by COOLING_RATE each step, a move shifts the junction by
a normal of SIGMA_POSITION times L/n per coordinate and kicks its tangent
by SIGMA_TANGENT radians, and junctions may not come closer than
MIN_DISTANCE times L/n. L/n is also the unit of the length gate, so a run
from a chain dilated by d, with length d L, is the undilated run with every
length d times and every energy and temperature d^(2 - q) times its value;
for d a power of two, bit for bit up to the last-bit rounding of pow in the
pair terms x^q.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .biarc import PairError, _move_lengths
from .energy import _pair_tiles, _quotients, pair_stats
from .interpolate import BiarcCurve, from_junctions

# the first temperature, times the initial energy
INITIAL_TEMPERATURE = 0.1
# geometric cooling: the temperature is multiplied by this every step
COOLING_RATE = 0.995
# standard deviation of a junction's move per coordinate, times L/n
SIGMA_POSITION = 0.05
# standard deviation of a tangent's kick per coordinate, in radians
SIGMA_TANGENT = 0.05
# smallest distance allowed between two junctions, times L/n
MIN_DISTANCE = 1e-3


@dataclass
class AnnealConfig:
    """A run of ``steps`` moves at energy power q on a chain of n biarcs
    and length L, drawn from ``seed``. The schedule and the move scales are
    the module constants: INITIAL_TEMPERATURE times the initial energy,
    COOLING_RATE, SIGMA_POSITION and MIN_DISTANCE times L/n, and
    SIGMA_TANGENT in radians."""

    q: float
    n: int
    L: float
    steps: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.q < 2:
            raise ValueError("energy power q must be >= 2")


# why a move is rejected, in the order the guards run
REJECTION_REASONS = ("not_constructible", "gate", "min_distance", "thickness_floor", "metropolis")


@dataclass
class AnnealTrace:
    """Per-step records (step, energy, temperature, accepted) where energy
    is the chain energy after the accept/reject decision, plus the energy
    of the best configuration seen, which `anneal_discrete` returns as a
    chain. ``rejections`` counts the rejected moves by the first guard they
    failed, keyed by REJECTION_REASONS; with the accepted moves they add up
    to the step count."""

    records: np.ndarray
    best_energy: float
    rejections: dict = field(default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))

    @property
    def accepted(self) -> np.ndarray:
        return self.records[self.records[:, 3] > 0.5]


class _PairTable:
    """The state of one anneal run: junction points and tangents, biarc
    lengths lam, and the table Y[i, k] = x_ik^q of every pair quotient,
    filled once by the pair kernel.

    A move of junction j changes only row j and column j of Y and lam[j - 1]
    and lam[j]; the two lengths come from `_move_lengths`, the biarc
    construction of `from_junctions` run on floats for the two pairs, so
    they are the bits `from_junctions` would give. `propose` checks the
    move's guards on those new entries alone - every other pair already
    passed them - and writes it into Y and lam; the energy is then
    lam @ (Y @ lam), the expression `pair_stats` reduces, so with a single
    row tile (n <= 181) both agree bit for bit. `commit` keeps a proposed
    move, `undo` restores the saved row, column and lengths. A step costs
    O(n) plus one (n, n) matrix-vector product, and Y holds 8 n^2 bytes.
    """

    def __init__(self, initial: BiarcCurve, cfg: AnnealConfig):
        n = initial.n_segments
        self.q = cfg.q
        self.min_distance = MIN_DISTANCE * cfg.L / n
        self.lo, self.hi = cfg.L / (2 * n), 2 * cfg.L / n
        self.lam = initial.segment_lengths.copy()
        if self.lam.min() < self.lo or self.lam.max() > self.hi:
            raise ValueError("initial configuration fails the length gate")
        self.points = initial.junction_points.copy()
        self.tangents = initial.junction_tangents.copy()
        stats = pair_stats(self.points, self.tangents, self.lam, cfg.q)
        if stats.min_distance < self.min_distance:
            raise ValueError("initial junctions are closer than MIN_DISTANCE * L / n")
        # the thickness proxy is the inverse of the largest junction quotient
        self.ceiling = 2.0 * stats.max_quotient
        # coordinate rows of the quotient operands of a move at j: the moved
        # point against every junction (row j of Y), then every junction
        # against the moved point and tangent (column j); the halves that
        # hold the moved junction are written by each `propose`
        p, t = self.points.T, self.tangents.T
        self._rows = np.concatenate([p, p], axis=1)
        self._cols = np.concatenate([p, p], axis=1)
        self._tans = np.concatenate([t, t], axis=1)
        self.Y = np.empty((n, n))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo, _, x in _pair_tiles(self.points, self.tangents):
                x **= self.q
                self.Y[lo : lo + len(x)] = x
        self.energy = self.candidate = float(self.lam @ (self.Y @ self.lam))
        self._move = None

    def propose(self, j: int, point: np.ndarray, tangent: np.ndarray) -> Optional[str]:
        """Try moving junction j to (point, tangent). Returns the reason the
        move is rejected, leaving the table as it was, or None after writing
        the move into Y and lam and its energy into ``candidate``."""
        n = len(self.lam)
        jm, jp = (j - 1) % n, (j + 1) % n
        pts = (self.points[jm].tolist(), point.tolist(), self.points[jp].tolist())
        tans = (self.tangents[jm].tolist(), tangent.tolist(), self.tangents[jp].tolist())
        try:
            lam_prev, lam_j = _move_lengths(pts, tans)
        except PairError:
            return "not_constructible"
        if min(lam_prev, lam_j) < self.lo or max(lam_prev, lam_j) > self.hi:
            return "gate"
        self._rows[:, :n] = point[:, None]
        self._cols[:, n:] = point[:, None]
        self._tans[:, n:] = tangent[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dist2, x = _quotients(self._rows, self._cols, self._tans)
            # entries j and n + j pair the moved junction with itself
            dist2[j] = dist2[n + j] = math.inf
            if math.sqrt(dist2.min()) < self.min_distance:
                return "min_distance"
            x[j] = x[n + j] = 0.0
            if x.max() > self.ceiling:
                return "thickness_floor"
            y = x**self.q
        row, col = self.Y[j].copy(), self.Y[:, j].copy()
        self._move = (j, point, tangent, row, col, self.lam[jm], self.lam[j])
        self.Y[j] = y[:n]
        self.Y[:, j] = y[n:]
        self.lam[jm], self.lam[j] = lam_prev, lam_j
        self.candidate = float(self.lam @ (self.Y @ self.lam))
        return None

    def commit(self) -> None:
        """Keep the proposed move."""
        j, point, tangent = self._move[:3]
        n = len(self.lam)
        self.points[j] = self._rows[:, n + j] = self._cols[:, j] = point
        self.tangents[j] = self._tans[:, j] = tangent
        self.energy = self.candidate
        self._move = None

    def undo(self) -> None:
        """Drop the proposed move: restore row and column j and the lengths."""
        j, _, _, row, col, lam_prev, lam_j = self._move
        self.Y[j] = row
        self.Y[:, j] = col
        self.lam[j - 1], self.lam[j] = lam_prev, lam_j
        self._move = None


def anneal_discrete(initial: BiarcCurve, cfg: AnnealConfig) -> tuple[BiarcCurve, AnnealTrace]:
    """Search for low-energy junction configurations near the initial one.

    Returns the best configuration found (rebuilt, so all chain invariants
    are re-validated) together with the annealing trace. With a fixed seed
    the run is deterministic.
    """
    n = initial.n_segments
    if cfg.n != n:
        raise ValueError(f"config expects n={cfg.n} but the curve has {n} segments")
    table = _PairTable(initial, cfg)

    rng = np.random.default_rng(cfg.seed)
    temperature = INITIAL_TEMPERATURE * table.energy
    sigma_q = SIGMA_POSITION * cfg.L / n

    best_energy = table.energy
    best_points = table.points.copy()
    best_tangents = table.tangents.copy()
    records = np.empty((cfg.steps, 4))
    rejections = dict.fromkeys(REJECTION_REASONS, 0)

    for step in range(cfg.steps):
        j = int(rng.integers(n))
        point = table.points[j] + rng.normal(scale=sigma_q, size=3)
        t = table.tangents[j]
        kick = rng.normal(scale=SIGMA_TANGENT, size=3)
        kick -= np.dot(kick, t) * t
        kicked = t + kick
        # the norm np.linalg.norm takes, without its per-call checks
        tangent = kicked / math.sqrt(kicked.dot(kicked))

        rejected = table.propose(j, point, tangent)
        if rejected is None:
            delta = table.candidate - table.energy
            # at temperature 0 (geometric cooling underflows) only downhill
            # moves pass
            if delta <= 0.0 or (
                temperature > 0.0 and rng.random() < math.exp(-delta / temperature)
            ):
                table.commit()
                if table.energy < best_energy:
                    best_energy = table.energy
                    best_points = table.points.copy()
                    best_tangents = table.tangents.copy()
            else:
                table.undo()
                rejected = "metropolis"
        if rejected is not None:
            rejections[rejected] += 1
        records[step] = (step, table.energy, temperature, float(rejected is None))
        temperature *= COOLING_RATE

    best = from_junctions(best_points, best_tangents)
    return best, AnnealTrace(records, best_energy, rejections)


def trace_to_csv(trace: AnnealTrace) -> str:
    buf = io.StringIO()
    buf.write("step,energy,temperature,accepted\n")
    for step, energy, temperature, accepted in trace.records:
        buf.write(f"{int(step)},{energy:.12g},{temperature:.12g},{int(accepted)}\n")
    return buf.getvalue()
