"""Record the reference outputs that every run at the default seed (and
every run of a seed-independent workload) is compared against.

    python3 perfbench/record_reference.py

Runs each workload once at the default seed and writes reference.json. Run
it only when the reference itself is meant to change.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    reference = {}
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmpdir:
        for name, workload in workloads.WORKLOADS.items():
            out_path = Path(tmpdir) / f"{name}.trace.csv"
            argv = workload.argv(workloads.DEFAULT_SEED, out_path)
            proc = subprocess.run(
                [sys.executable, "-m", "biarcs", *argv],
                env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, check=True,
            )
            if workload.writes_out:
                trace = workloads.anneal_trace(out_path)
                initial = 10.0 * trace[0]["temperature"]
                best = min(initial, min(r["energy"] for r in trace))
                reference[name] = {"initial_energy": initial, "best_energy": best}
            else:
                reference[name] = workloads.parse_csv(proc.stdout)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
