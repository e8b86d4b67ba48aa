"""Tangent-point energies, thickness, ropelength, and related checks.

Discrete energies live on closed biarc curves and are driven by the
junction quotients x_ij = 2 dist(l(q_j), q_i) / |q_i - q_j|^2, the inverse
tangent-point radius of junction i seen from the tangent line l(q_j) at
junction j. Every double sum over point pairs - the discrete energy, the
anneal guards, the continuous quadrature and the thickness seed search -
goes through one row-blocked kernel, `_pair_tiles`: it walks tiles of
about PAIR_TILE pairs, so memory stays O(n * block) however large n is.
`pair_stats` reduces those tiles in a single pass to the energy (high
powers accumulated as a streaming log-sum-exp), the largest quotient and
the smallest junction distance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
import numpy as np
from scipy.optimize import minimize

from .curve import CurveSpec, curvature_values, periodic_distance
from .interpolate import BiarcCurve, check_Bn

# switch the double sum to log-space accumulation beyond this power
LOG_SPACE_POWER = 50.0
# point pairs per row tile of the pair kernel: a tile's temporaries take a
# few MB and stay cache-resident whatever the number of points
PAIR_TILE = 1 << 15

CSV_HEADER = "kind,q,n,value,grid,curve,seed"


@dataclass(frozen=True)
class EnergyReport:
    """A named energy value with its discretization metadata."""

    kind: str
    q: float
    n: int
    value: float
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"kind": self.kind, "q": self.q, "n": self.n, "value": self.value}
        payload.update(self.metadata)
        return json.dumps(payload, sort_keys=True)

    def to_csv_row(self) -> str:
        grid = self.metadata.get("grid", "")
        curve = self.metadata.get("curve", "")
        seed = self.metadata.get("seed", "")
        return f"{self.kind},{self.q:.12g},{self.n},{self.value:.12g},{grid},{curve},{seed}"


def _pair_tiles(points: np.ndarray, tangents: np.ndarray):
    """Row tiles of the pair quotient. Yields (lo, dist2, x) where, for
    i = lo + r and every j,

        dist2[r, j] = |p_i - p_j|^2,
        x[r, j] = 2 |(p_i - p_j) - ((p_i - p_j) . t_j) t_j| / dist2[r, j],

    the inverse tangent-point radius of p_i seen from the tangent line at
    p_j. On the diagonal i = j, dist2 is NaN and x is 0. The caller runs
    the loop under np.errstate: coincident points give NaN quotients.
    """
    n = len(points)
    rows = max(1, PAIR_TILE // n)
    px, py, pz = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    tx, ty, tz = np.ascontiguousarray(np.asarray(tangents, dtype=float).T)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # p_i - p_j, one (rows, n) array per coordinate
        dx, dy, dz = px[lo:hi, None] - px, py[lo:hi, None] - py, pz[lo:hi, None] - pz
        dist2 = dx * dx + dy * dy + dz * dz
        along = dx * tx + dy * ty + dz * tz
        dx -= along * tx
        dy -= along * ty
        dz -= along * tz
        h = np.sqrt(dx * dx + dy * dy + dz * dz)
        # flat index of (r, lo + r) is lo + r (n + 1)
        dist2.reshape(-1)[lo :: n + 1] = np.nan
        x = 2.0 * h / dist2
        x.reshape(-1)[lo :: n + 1] = 0.0
        yield lo, dist2, x


@dataclass(frozen=True)
class PairStats:
    """One pass over the pairs i != j of a junction configuration."""

    energy: float  # sum_{i != j} x_ij^q lambda_i lambda_j (inf on overflow)
    log_energy: float  # its logarithm, finite where the energy overflows
    max_quotient: float  # largest x_ij: the inverse of the thickness proxy
    min_distance: float  # smallest |q_i - q_j|


def pair_stats(points, tangents, lam, q: float) -> PairStats:
    """Energy, largest quotient and smallest distance of the junction pairs
    in one pass of the row-blocked pair kernel.

    The energy is a plain sum for q <= LOG_SPACE_POWER and a streaming
    log-sum-exp beyond. Raises ValueError when two junctions coincide
    relative to the configuration's diameter.
    """
    lam = np.asarray(lam, dtype=float)
    log_space = q > LOG_SPACE_POWER
    total = 0.0  # the plain sum, or sum exp(term - shift) in log space
    shift = -math.inf  # largest log term so far
    max_x = 0.0
    min_d2, max_d2 = math.inf, 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo, dist2, x in _pair_tiles(points, tangents):
            lam_rows = lam[lo : lo + len(x)]
            min_d2 = min(min_d2, float(np.fmin.reduce(dist2, axis=None)))
            max_d2 = max(max_d2, float(np.fmax.reduce(dist2, axis=None)))
            max_x = max(max_x, float(x.max()))
            if log_space:
                terms = q * np.log(x) + np.log(lam_rows[:, None] * lam[None, :])
                top = float(terms.max())
                if top > shift:
                    total *= math.exp(shift - top)
                    shift = top
                if shift > -math.inf:
                    total += float(np.exp(terms - shift).sum())
            else:
                total += float(lam_rows @ (x**q @ lam))
        if min_d2 <= (1e-12 * math.sqrt(max_d2)) ** 2:
            raise ValueError("coincident junction points")
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
    n = beta.n_segments
    if gated and not check_Bn(beta, L, n):
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
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, dist2, x in _pair_tiles(pos, tan):
            i, j = np.nonzero(dist2 < (1e-9 * L) ** 2)
            # nodes of the midpoint grid are h apart: a collapsed chord
            # between nodes more than 2.5 h apart along the curve means
            # two distinct parameters collide
            sep = np.abs(i + lo - j)
            if np.any(np.minimum(sep, grid - sep) > 2):
                raise ValueError("curve is not embedded: distinct parameters collide")
            total += float(np.sum(x**q))
    return total * h * h


def _inverse_tp(curve: CurveSpec, L: float, s: float, t: float) -> float:
    # the band |s-t| < 1e-3 L is excluded: there the quotient is a 0/0
    # cancellation whose supremum is the curvature, handled separately
    if periodic_distance(s, t, L) < 1e-3 * L:
        return 0.0
    p = curve.position(np.array([s, t]))
    tangent = curve.derivative(np.array([s]))[0]
    d = p[1] - p[0]
    dist2 = float(np.dot(d, d))
    if dist2 < (1e-9 * L) ** 2:
        return 0.0
    perp = d - np.dot(d, tangent) * tangent
    return 2.0 * float(np.linalg.norm(perp)) / dist2


def thickness_and_ropelength(curve: CurveSpec, grid: int = 64) -> tuple[float, float]:
    """Thickness (smallest tangent-point radius) and ropelength length/Delta.

    A coarse pair grid seeds local Nelder-Mead refinements of the largest
    inverse radii; the near-diagonal supremum equals the maximal curvature
    and is taken into account separately.
    """
    if not curve.is_arclength:
        raise ValueError("thickness expects an arclength-parametrized curve")
    L = curve.length
    h = L / grid
    s = (np.arange(grid) + 0.5) * h
    pos = curve.position(s)
    tan = curve.derivative(s)
    # the largest inverse radii of the grid, tile by tile: the top cells of
    # each tile include every cell of the global top that lies in it
    k = 8 * 4  # seed candidates, before the neighbour filter keeps eight
    values, cells = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, _, x in _pair_tiles(pos, tan):
            par = periodic_distance(s[lo : lo + len(x), None], s[None, :], L)
            inv = np.where(par >= 1e-3 * L, x, 0.0).reshape(-1)
            top = np.argpartition(inv, -k)[-k:] if inv.size > k else np.arange(inv.size)
            # x[r, c] is the inverse radius of node lo + r seen from the
            # tangent line at node c: grid cell (c, lo + r)
            r, c = np.divmod(top, grid)
            values.append(inv[top])
            cells.append(c * grid + lo + r)
    values, cells = np.concatenate(values), np.concatenate(cells)
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
    best = 0.0
    converged = False
    for i, j in seeds:
        res = minimize(
            lambda z: -_inverse_tp(curve, L, z[0], z[1]),
            x0=np.array([s[i], s[j]]),
            method="Nelder-Mead",
            options={"xatol": 1e-10 * L, "fatol": 1e-12, "maxiter": 400},
        )
        if res.success:
            converged = True
        best = max(best, -float(res.fun))
    if not converged and seeds:
        raise RuntimeError(
            f"thickness refinement did not converge; best inverse radius {best!r}"
        )
    curv = float(np.max(curvature_values(curve, s)))
    sup_inv = max(best, curv)
    delta = 1.0 / sup_inv
    return delta, L / delta


def ropelength_proxy(beta: BiarcCurve, L: float) -> float:
    """L^((n-2)/n) * (n-th discrete energy)^(1/n), evaluated in log space.

    Returns +inf when the curve fails the length gate.
    """
    n = beta.n_segments
    if not check_Bn(beta, L, n):
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
    if not check_Bn(beta, L, n):
        raise ValueError("biarc curve fails the length gate")
    lhs = math.exp(_beta_stats(beta, float(k)).log_energy / k)
    length = beta.total_length
    factor = (4.0 * length * length * n * (n - 1) / n**2) ** (1.0 / k - 1.0 / m)
    rhs = factor * math.exp(_beta_stats(beta, float(m)).log_energy / m)
    return HolderCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-12))
