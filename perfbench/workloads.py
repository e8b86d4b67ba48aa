"""The benchmark workloads: the biarcs CLI argv of each, and the checks its
outputs must pass on every run.

Only the standard library is used here, so the parent process never imports
numpy or biarcs and every measured child starts from a cold interpreter.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# The reference check runs for this seed (the CLI's default) and, for a
# workload whose input does not depend on the seed, for every seed.
DEFAULT_SEED = 0

TORUS_KNOT = ("--curve", "torus_knot", "--params", "2,3,2,0.5")
# Arclength of the (2, 3) torus knot with R = 2, r = 0.5, as the CLI resolves
# it (Simpson on 2048 cells); the length gate of the annealed chain uses it.
TORUS_KNOT_LENGTH = 26.888740780233853

ANNEAL_N = 64
ANNEAL_Q = 4.0
ANNEAL_STEPS = 1500

# Relative tolerance against the recorded values: loose enough for sums taken
# in another order or a more accurate arclength inversion, tight enough that a
# wrong answer (off in the third digit or worse) fails.
REFERENCE_RTOL = 1e-5
# The mollified curve depends on the convolution quadrature itself, so a
# different (equally valid) quadrature moves it further.
MOLLIFY_RTOL = 1e-3
# The anneal sidecar rounds to nine decimals; that moves the recomputed
# energy by ~1e-8 relative.
SIDECAR_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    seeded: bool  # False when the seed does not change the input
    writes_out: bool  # anneal writes its trace to --out plus a sidecar
    check: Callable  # (stdout text, out path or None, argv, reference or None) -> problems

    def argv(self, seed: int, out_path: Path | None) -> list[str]:
        argv = [*self.args, "--seed", str(seed)]
        if self.writes_out:
            argv += ["--out", str(out_path)]
        return argv


def parse_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _compare_rows(rows, expected, columns, rtol) -> list[str]:
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, reference has {len(expected)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, expected)):
        for col in columns:
            if not _close(row[col], ref[col], rtol):
                problems.append(f"row {i}: {col} {row[col]!r}, reference {ref[col]!r}")
    return problems


def _sweep(args) -> list[int]:
    return [int(v) for v in args[args.index("--n-sweep") + 1].split(",")]


def _parse(stdout: str, columns: list[str], sweep_col: str, args) -> tuple[list, list]:
    try:
        rows = parse_csv(stdout)
    except ValueError as exc:
        return [], [f"unparsable output: {exc}"]
    if not rows or list(rows[0]) != columns:
        return [], [f"expected columns {columns}"]
    if [int(r[sweep_col]) for r in rows] != _sweep(args):
        return [], ["sweep values do not match the argv"]
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        return [], ["non-finite value in the output"]
    return rows, []


def check_converge(stdout, out_path, args, reference) -> list[str]:
    cols = ["n", "discrete_energy", "reference_energy", "abs_error", "fitted_slope"]
    rows, problems = _parse(stdout, cols, "n", args)
    if problems:
        return problems
    if rows[0]["fitted_slope"] > -0.8:
        problems.append(f"fitted slope {rows[0]['fitted_slope']} above -0.8")
    if not _strictly_decreasing([r["abs_error"] for r in rows]):
        problems.append("abs_error does not decrease along the sweep")
    if reference is not None:
        problems += _compare_rows(
            rows, reference, ["discrete_energy", "reference_energy"], REFERENCE_RTOL
        )
        # abs_error is a difference of nearby energies: compare it on the
        # energies' scale; the slope gets an absolute tolerance
        scale = REFERENCE_RTOL * rows[0]["reference_energy"]
        for row, ref in zip(rows, reference):
            if abs(row["abs_error"] - ref["abs_error"]) > scale:
                problems.append(f"n={ref['n']}: abs_error {row['abs_error']!r}")
        if abs(rows[0]["fitted_slope"] - reference[0]["fitted_slope"]) > 1e-3:
            problems.append(f"fitted slope {rows[0]['fitted_slope']!r} moved")
    return problems


def check_ropelength(stdout, out_path, args, reference) -> list[str]:
    rows, problems = _parse(stdout, ["n", "proxy", "reference", "gap"], "n", args)
    if problems:
        return problems
    proxies = [r["proxy"] for r in rows]
    if not all(b > a for a, b in zip(proxies, proxies[1:])):
        problems.append("the proxy does not increase along the sweep")
    if not _strictly_decreasing([r["gap"] for r in rows]):
        problems.append("the gap to the reference does not decrease")
    if reference is not None:
        problems += _compare_rows(rows, reference, ["proxy", "reference"], REFERENCE_RTOL)
    return problems


def check_mollify(stdout, out_path, args, reference) -> list[str]:
    cols = ["k", "eps", "c1_distance", "tangent_seminorm"]
    rows, problems = _parse(stdout, cols, "k", args)
    if problems:
        return problems
    for col in ("c1_distance", "tangent_seminorm"):
        values = [r[col] for r in rows]
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"{col} increases along the smoothing sweep")
    if reference is not None:
        problems += _compare_rows(rows, reference, ["c1_distance", "tangent_seminorm"], MOLLIFY_RTOL)
    return problems


def anneal_trace(out_path: Path) -> list[dict]:
    return parse_csv(out_path.read_text())


def sidecar_energy(text: str, q: float) -> tuple[float, list[float]]:
    """Discrete tangent-point energy sum_{i != j} x_ij^q lambda_i lambda_j of
    a junction sidecar, recomputed independently of the program, together
    with the sidecar's segment lengths."""
    points, tangents, lams = [], [], []
    for line in text.splitlines():
        v = [float(f) for f in line.split()]
        if len(v) != 7:
            raise ValueError(f"sidecar line has {len(v)} fields")
        t = math.sqrt(v[3] ** 2 + v[4] ** 2 + v[5] ** 2)
        points.append(v[0:3])
        tangents.append([c / t for c in v[3:6]])
        lams.append(v[6])
    total = 0.0
    for i, (p, lam_i) in enumerate(zip(points, lams)):
        for j, (r, t) in enumerate(zip(points, tangents)):
            if i == j:
                continue
            d = [p[0] - r[0], p[1] - r[1], p[2] - r[2]]
            along = d[0] * t[0] + d[1] * t[1] + d[2] * t[2]
            perp = [d[k] - along * t[k] for k in range(3)]
            dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
            x = 2.0 * math.sqrt(perp[0] ** 2 + perp[1] ** 2 + perp[2] ** 2) / dist2
            total += x**q * lam_i * lams[j]
    return total, lams


def check_anneal(stdout, out_path, args, reference) -> list[str]:
    try:
        trace = anneal_trace(out_path)
        sidecar = out_path.with_suffix(".junctions.txt").read_text()
    except (OSError, ValueError) as exc:
        return [f"missing or unparsable output: {exc}"]
    problems = []
    if [int(r["step"]) for r in trace] != list(range(ANNEAL_STEPS)):
        return [f"trace has {len(trace)} rows, expected steps 0..{ANNEAL_STEPS - 1}"]
    if any(r["accepted"] not in (0.0, 1.0) for r in trace):
        problems.append("accepted column is not 0/1")
    # the default initial temperature is a tenth of the initial energy
    initial = 10.0 * trace[0]["temperature"]
    best = min(initial, min(r["energy"] for r in trace))
    if best > initial:
        problems.append(f"best energy {best} above the initial {initial}")
    try:
        energy, lams = sidecar_energy(sidecar, ANNEAL_Q)
    except (ValueError, ZeroDivisionError) as exc:
        return problems + [f"bad junction sidecar: {exc}"]
    if len(lams) != ANNEAL_N:
        problems.append(f"sidecar has {len(lams)} junctions, expected {ANNEAL_N}")
    if not _close(energy, best, SIDECAR_RTOL):
        problems.append(f"sidecar energy {energy!r} != best trace energy {best!r}")
    lo = TORUS_KNOT_LENGTH / (2 * ANNEAL_N) * (1 - 1e-6)
    hi = 2 * TORUS_KNOT_LENGTH / ANNEAL_N * (1 + 1e-6)
    if not all(lo <= lam <= hi for lam in lams):
        problems.append("the rebuilt chain fails the length gate")
    if reference is not None:
        for key, value in (("initial_energy", initial), ("best_energy", best)):
            if not _close(value, reference[key], REFERENCE_RTOL):
                problems.append(f"{key} {value!r}, reference {reference[key]!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge_ellipse",
            ("converge", "--curve", "ellipse", "--params", "2,1", "--q", "3",
             "--n-sweep", "64,128,256,512,1024,2048", "--grid", "2048",
             "--partition", "jitter:0.1"),
            seeded=True,
            writes_out=False,
            check=check_converge,
        ),
        Workload(
            "ropelength_knot",
            ("ropelength", *TORUS_KNOT, "--n-sweep", "64,128,256,512,1024",
             "--grid", "2048", "--partition", "jitter:0.1"),
            seeded=True,
            writes_out=False,
            check=check_ropelength,
        ),
        Workload(
            "anneal_knot",
            ("anneal", *TORUS_KNOT, "--n", str(ANNEAL_N), "--q", f"{ANNEAL_Q:g}",
             "--steps", str(ANNEAL_STEPS)),
            seeded=True,
            writes_out=True,
            check=check_anneal,
        ),
        Workload(
            "mollify_knot",
            ("mollify", *TORUS_KNOT, "--q", "3", "--n-sweep", "4,8,16,32", "--grid", "512"),
            seeded=False,
            writes_out=False,
            check=check_mollify,
        ),
    )
}


def check_outputs(workload: Workload, stdout: str, out_path, seed: int, reference: dict) -> list[str]:
    """All problems with one run's outputs; empty when it is correct."""
    expected = None
    if seed == DEFAULT_SEED or not workload.seeded:
        expected = reference[workload.name]
    return workload.check(stdout, out_path, workload.args, expected)
