"""Simulated annealing for discrete tangent-point energies on closed
biarc configurations.

Moves perturb one junction at a time and rebuild only the two adjacent
biarcs, with the chain build's own construction run on Python floats
(`biarc._move_lengths`: the lengths `from_junctions` gives, bit for bit).
A move is rejected outright when a rebuilt pair is not constructible, the
length gate fails, junctions get too close, or the configuration's
polygonal thickness proxy drops below half its initial value (a crude
guard against leaving the knot class).

The run keeps every pair term in an (n, n) table, 8 n^2 bytes, filled
once by the pair kernel. A move rewrites one row and one column of it, so
a step costs O(n) plus a matrix-vector product for the energy instead of
a full pair-kernel pass. The terms are scaled to at most 1 and the run
works in those units, so nothing overflows at any scale.

The schedule and the move scales are constants, in units of the run
itself: the temperature starts at INITIAL_TEMPERATURE times the initial
energy and falls by COOLING_RATE each step, a move shifts the junction by
a normal of SIGMA_POSITION times L/n per coordinate and kicks its tangent
by SIGMA_TANGENT radians, and junctions may not come closer than
MIN_DISTANCE times L/n. L/n is also the unit of the length gate, so a run
from a chain dilated by d, with length d L, is the undilated run with every
length d times and every energy and temperature d^(2 - q) times its value;
for d a power of two and an integral q, bit for bit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._stream import Stream, _check_seed
from .biarc import PairError, _move_lengths
from .curve import _triangle_tiles
from .energy import (
    _normal_frame,
    _pair_operands,
    _pair_tiles,
    _quotients,
    _scaled_powers,
    _unscaled,
)
from .interpolate import BiarcCurve, check_Bn, from_junctions

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
    and length L, drawn from ``seed``, a non-negative integer. The schedule
    and the move scales are the module constants: INITIAL_TEMPERATURE times
    the initial energy, COOLING_RATE, SIGMA_POSITION and MIN_DISTANCE times
    L/n, and SIGMA_TANGENT in radians."""

    q: float
    n: int
    L: float
    steps: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 2 <= self.q < math.inf:
            raise ValueError(f"energy power q must be finite and >= 2, got {self.q}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"chain length L must be finite and positive, got {self.L}")
        self.seed = _check_seed(self.seed)


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
    lengths w = lam / 2^k < 1 (2^k the power of two above the gate), and the
    table Y[i, k] = (x_ik / ceiling)^q <= 1 (the thickness floor rejects
    larger quotients). The energy w @ (Y @ w) is the chain energy over
    ceiling^q 4^k, which `unscale` multiplies back.

    A move of junction j changes only row j and column j of Y and w[j - 1]
    and w[j]; the two lengths come from `_move_lengths`, the biarc
    construction of `from_junctions` run on floats for the two pairs, so
    they are the bits `from_junctions` would give. The quotients see each
    tangent through its `_normal_frame`, which the table keeps per junction
    and computes for a moved tangent on floats with the fill's arithmetic,
    so a move writes the entries a fresh fill would. `propose` checks the
    move's guards on those new entries alone - every other pair already
    passed them - and writes it into Y and w, and its energy into
    ``candidate``. `commit` keeps a proposed move, `undo` restores the saved
    row, column and lengths.
    """

    def __init__(self, initial: BiarcCurve, cfg: AnnealConfig):
        n = initial.n_segments
        self.q = cfg.q
        self.min_distance = MIN_DISTANCE * cfg.L / n
        self.lo, self.hi = cfg.L / (2 * n), 2 * cfg.L / n
        if not check_Bn(initial, cfg.L):
            raise ValueError("initial configuration fails the length gate")
        self.k = math.frexp(self.hi)[1]
        self.w = np.ldexp(initial.segment_lengths, -self.k)
        self.points = initial.junction_points.copy()
        self.tangents = initial.junction_tangents.copy()
        # the normal frames a move at j projects its differences on: every
        # junction's (row j of Y), then the moved tangent's, which each
        # `propose` writes (column j)
        frame = _normal_frame(self.tangents.T)
        self._frame = np.stack([frame, frame], axis=2)
        self.Y = np.empty((n, n))
        min_d2 = math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            # a tile holds rows [lo, hi) against columns from lo, and the
            # transposed pairs past the tile; fmin skips the NaN diagonal
            for lo, cols, dist2, x, _ in _pair_tiles(_pair_operands(self.points, self.tangents)):
                hi = lo + x.shape[1]
                self.Y[lo:hi, cols] = x[0]
                self.Y[hi:, lo:hi] = x[1, :, hi - lo :].T
                min_d2 = min(min_d2, float(np.fmin.reduce(dist2, axis=None)))
        if math.sqrt(min_d2) < self.min_distance:
            raise ValueError("initial junctions are closer than MIN_DISTANCE * L / n")
        # the thickness proxy is the inverse of the largest junction quotient
        self.ceiling = 2.0 * float(self.Y.max())
        # by the tiles' rows: at q = 3 a spare the size of Y would double the peak
        for lo, hi, _ in _triangle_tiles(n):
            _scaled_powers(self.Y[lo:hi], self.ceiling, self.q)
        self.energy = self.candidate = float(self.w @ (self.Y @ self.w))
        self._move = None

    def unscale(self, energy):
        """Energies of the table's units (a float or an array) in the chain's."""
        return _unscaled(energy, self.ceiling, self.q, self.k)[0]

    def propose(self, j: int, point: np.ndarray, tangent: np.ndarray) -> Optional[str]:
        """Try moving junction j to (point, tangent). Returns the reason the
        move is rejected, leaving the table as it was, or None after writing
        the move into Y and w and its energy into ``candidate``."""
        n = len(self.w)
        jm, jp = (j - 1) % n, (j + 1) % n
        pts = (self.points[jm].tolist(), point.tolist(), self.points[jp].tolist())
        tans = (self.tangents[jm].tolist(), tangent.tolist(), self.tangents[jp].tolist())
        try:
            lam_prev, lam_j = _move_lengths(pts, tans)
        except PairError:
            return "not_constructible"
        if min(lam_prev, lam_j) < self.lo or max(lam_prev, lam_j) > self.hi:
            return "gate"
        # the frame the fill gives column j, bit for bit, on floats
        frame = _normal_frame(tangent.tolist())
        self._frame[:, :, 1] = frame[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # one difference d = point - p_k for both orders, as a pair tile
            # takes: x[0] is row j, and x[1] column j, p_k - point = -d on
            # the moved frame, whose projections square to the same bits
            d = np.subtract(point[:, None], self.points.T, order="C")
            dist2, x = _quotients(d, self._frame)
            # entry j pairs the moved junction with itself
            dist2[j] = math.inf
            if math.sqrt(dist2.min()) < self.min_distance:
                return "min_distance"
            x[:, j] = 0.0
            if x.max() > self.ceiling:
                return "thickness_floor"
            y = _scaled_powers(x, self.ceiling, self.q)
        row, col = self.Y[j].copy(), self.Y[:, j].copy()
        self._move = (j, point, tangent, frame, row, col, self.w[jm], self.w[j])
        self.Y[j] = y[0]
        self.Y[:, j] = y[1]
        self.w[jm], self.w[j] = math.ldexp(lam_prev, -self.k), math.ldexp(lam_j, -self.k)
        self.candidate = float(self.w @ (self.Y @ self.w))
        return None

    def commit(self) -> None:
        """Keep the proposed move."""
        j, point, tangent, frame = self._move[:4]
        self.points[j] = point
        self.tangents[j] = tangent
        self._frame[:, :, 0, j] = frame
        self.energy = self.candidate
        self._move = None

    def undo(self) -> None:
        """Drop the proposed move: restore row and column j and the lengths."""
        j, _, _, _, row, col, w_prev, w_j = self._move
        self.Y[j] = row
        self.Y[:, j] = col
        self.w[j - 1], self.w[j] = w_prev, w_j
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

    # energies and the temperature in the table's units until the trace
    temperature = INITIAL_TEMPERATURE * table.energy
    sigma_q = SIGMA_POSITION * cfg.L / n
    # a step draws its junction, then the point's and the tangent's kicks
    stream = Stream(cfg.seed)
    scales = (sigma_q,) * 3 + (SIGMA_TANGENT,) * 3

    best_energy = table.energy
    best_points = table.points.copy()
    best_tangents = table.tangents.copy()
    records = np.empty((cfg.steps, 4))
    rejections = dict.fromkeys(REJECTION_REASONS, 0)

    for step in range(cfg.steps):
        j = stream.integers(n)
        shift, kick = np.array([stream.normal(scale) for scale in scales]).reshape(2, 3)
        point = table.points[j] + shift
        t = table.tangents[j]
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
                temperature > 0.0 and stream.random() < math.exp(-delta / temperature)
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

    records[:, 1:3] = table.unscale(records[:, 1:3])
    best = from_junctions(best_points, best_tangents)
    return best, AnnealTrace(records, float(table.unscale(best_energy)), rejections)


def trace_to_csv(trace: AnnealTrace) -> str:
    buf = io.StringIO()
    buf.write("step,energy,temperature,accepted\n")
    # Python floats format as numpy's do in half the time; rows are
    # converted 256 at a time, as the whole trace as Python lists raised the
    # anneal's peak RSS by 0.35 MB
    for lo in range(0, len(trace.records), 256):
        for step, energy, temperature, accepted in trace.records[lo : lo + 256].tolist():
            buf.write(f"{int(step)},{energy:.12g},{temperature:.12g},{int(accepted)}\n")
    return buf.getvalue()
