"""The traced run's exact counters repeat exactly for a fixed seed.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Uses scaled-down argvs of the four workload commands so that it runs in
seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TORUS = ["--curve", "torus_knot", "--params", "2,3,2,0.5"]
SMALL = {
    "converge": ["converge", "--curve", "ellipse", "--params", "2,1", "--q", "3",
                 "--n-sweep", "16,32", "--grid", "64", "--partition", "jitter:0.1"],
    "ropelength": ["ropelength", *TORUS, "--n-sweep", "16,32", "--grid", "64",
                   "--partition", "jitter:0.1"],
    "anneal": ["anneal", *TORUS, "--n", "16", "--q", "4", "--steps", "40"],
    "mollify": ["mollify", *TORUS, "--q", "3", "--n-sweep", "4,8", "--grid", "128"],
}


def traced_counts(argv, tmp: Path, tag: str) -> dict:
    spans = tmp / f"{tag}.spans.json"
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, str(run.CHILD), str(write_fd), str(spans), *argv],
            pass_fds=(write_fd,), env=run.child_env(), cwd=run.ROOT,
            capture_output=True, text=True, timeout=120,
        )
    finally:
        os.close(write_fd)
        os.close(read_fd)
    assert proc.returncode == 0, proc.stderr
    steps = accepted = 0
    if "--out" in argv:
        rows = workloads.anneal_trace(Path(argv[argv.index("--out") + 1]))
        steps, accepted = len(rows), int(sum(r["accepted"] for r in rows))
    metrics = layers.layer_metrics(json.loads(spans.read_text()), steps, accepted)
    return {name: metrics[name] for name in layers.EXACT_COUNTS}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_two_traced_runs_of_one_seed_count_alike(command, tmp_path):
    runs = []
    for tag in ("a", "b"):
        argv = [*SMALL[command], "--seed", "5"]
        if command == "anneal":
            argv += ["--out", str(tmp_path / f"{tag}.csv")]
        runs.append(traced_counts(argv, tmp_path, tag))
    assert runs[0] == runs[1]


def test_counts_match_the_sweep(tmp_path):
    counts = traced_counts([*SMALL["converge"], "--seed", "5"], tmp_path, "c")
    assert counts["interpolate.biarcs_built"] == 16 + 32
    assert counts["biarc.build_balanced_biarc.calls"] == 16 + 32
    assert counts["energy.pairs_evaluated"] == 16 * 15 + 32 * 31
    assert counts["energy.quadrature_cells"] == 64 * 64
    assert counts["energy.thickness.objective_evals"] == 0
