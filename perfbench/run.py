"""Benchmark of the biarcs CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's CLI argv (see workloads.py) as child processes of one
parent, one child at a time (a closed loop with one client), until the next
child would end after --seconds. Every child's outputs are checked.

--trace 0 measures from outside the program and reports, as medians over
the children, the end-to-end metrics listed in BENCHMARK.json:
  wall_s       spawn to exit of one child
  setup_s      spawn until `import biarcs` has returned
  compute_s    wall_s - setup_s
  peak_rss_mb  the child's peak RSS (ru_maxrss from wait4)
--trace 1 alternates untraced children with traced ones, which run the same
argv in-process through biarcs.cli.main with span recorders around every
public function (tracer.py), and reports the per-layer metrics (layers.py).

Needs the repository's src/ next to this directory; exits with code 2
without a result when it is missing. The last stdout line is the result as
JSON; the lines above it give each metric's median, its highest supported
percentile and sample count, the failure fraction and the run metadata.
Raw samples, the traced run's spans and their per-size breakdown go to
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"
# the whole benchmark run must end within 180 s; children still running
# past this many seconds after start are killed and count as failed
HARD_LIMIT_S = 165.0
MIN_CHILDREN = 2
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Child:
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    problems: list[str]
    traced: bool
    layer: dict = field(default_factory=dict)
    spans_path: Path | None = None

    @property
    def compute_s(self) -> float | None:
        return None if self.setup_s is None else self.wall_s - self.setup_s


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    # no bytecode writes into the checkout; every child compiles biarcs alike
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload, seed, tmp: Path, index: int, traced: bool, reference, hard_deadline):
    """Run one child to completion and check its outputs."""
    out_path = tmp / f"{index}.trace.csv" if workload.writes_out else None
    stdout_path, stderr_path = tmp / f"{index}.stdout", tmp / f"{index}.stderr"
    spans_path = tmp / f"{index}.spans.json"
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, str(CHILD), str(write_fd), str(spans_path) if traced else "-"]
    cmd += workload.argv(seed, out_path)
    try:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, pass_fds=(write_fd,), stdout=out, stderr=err, env=child_env(), cwd=ROOT
            )
        os.close(write_fd)
        write_fd = -1
        killer = threading.Timer(max(hard_deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        message = os.read(read_fd, 4096).decode()
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)

    problems = []
    setup_s = None
    if message:
        stamp, imported = message.rstrip("\n").split(" ", 1)
        setup_s = float(stamp) - start
        if not Path(imported).resolve().is_relative_to(SRC.resolve()):
            problems.append(f"imported biarcs from {imported}, not from {SRC}")
    else:
        problems.append("the child died before `import biarcs` returned")
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    else:
        problems += workloads.check_outputs(
            workload, stdout_path.read_text(), out_path, seed, reference
        )
    child = Child(end - start, setup_s, usage.ru_maxrss / 1024.0, problems, traced)
    if traced and not problems:
        steps = accepted = 0
        if out_path is not None:
            rows = workloads.anneal_trace(out_path)
            steps, accepted = len(rows), int(sum(r["accepted"] for r in rows))
        trace = json.loads(spans_path.read_text())
        child.layer = layers.layer_metrics(trace, steps, accepted)
        child.spans_path = spans_path
    return child


def measure(workload, seed, seconds, tmp, trace, reference, hard_deadline):
    """Children until the next one would end after `seconds` (at least
    MIN_CHILDREN of each kind), or until one overruns the hard deadline.
    With `trace`, untraced and traced children alternate, so that a drift in
    the machine's speed reaches both alike."""
    children = []
    begin = time.monotonic()
    while True:
        traced = trace and len(children) % 2 == 1
        children.append(
            run_child(workload, seed, tmp, len(children), traced, reference, hard_deadline)
        )
        now = time.monotonic()
        if now + max(c.wall_s for c in children) > hard_deadline:
            break
        typical = statistics.median(c.wall_s for c in children)
        enough = len(children) >= MIN_CHILDREN * (2 if trace else 1)
        if enough and now - begin + typical > seconds:
            break
    return children


def supported_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples above it;
    the maximum when there are too few samples for any."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "max", max(values)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def package_version(name: str) -> str:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
    }


def end_to_end(children: list[Child]) -> dict:
    ok = [c for c in children if c.setup_s is not None]
    return {
        "wall_s": [c.wall_s for c in children],
        "setup_s": [c.setup_s for c in ok],
        "compute_s": [c.compute_s for c in ok],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
    }


def per_layer(plain: list[Child], traced: list[Child], tag: str) -> tuple[dict, bool, list]:
    """Samples of each per-layer metric over the traced children, whether
    their exact counts agree, and the per-(span, size) breakdown of the
    first one, whose spans are kept in WORK."""
    good = [c for c in traced if c.layer]
    if not good:
        return {}, False, []
    samples = {m: [c.layer[m] for c in good] for m in good[0].layer}
    agree = True
    for name in layers.EXACT_COUNTS:
        if len(set(samples[name])) > 1:
            agree = False
            print(f"count {name} differs between traced runs: {samples[name]}")
    untraced = [c.compute_s for c in plain if c.compute_s is not None]
    if untraced:
        overhead = statistics.median(c.compute_s for c in good) - statistics.median(untraced)
        samples["trace.overhead_s"] = [overhead]
    kept = WORK / f"spans-{tag}.json"
    os.replace(good[0].spans_path, kept)
    by_size = layers.span_summary(json.loads(kept.read_text()))[1]
    breakdown = [
        {"span": name, "size": size, **stats}
        for (name, size), stats in sorted(by_size.items(), key=lambda kv: str(kv[0]))
    ]
    return samples, agree, breakdown


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    if not (SRC / "biarcs" / "cli.py").is_file():
        print(f"error: no biarcs sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    with tempfile.TemporaryDirectory(dir=WORK) as tmpdir:
        tmp = Path(tmpdir)
        children = measure(
            workload, args.seed, args.seconds, tmp, bool(args.trace), reference, hard_deadline
        )
        plain = [c for c in children if not c.traced]
        traced = [c for c in children if c.traced]
        failed = sum(bool(c.problems) for c in children)
        correct = failed == 0
        for i, c in enumerate(children):
            for problem in c.problems:
                print(f"run {i} failed: {problem}")
        samples = end_to_end(plain)
        breakdown = []
        if args.trace:
            wanted = spec["per_layer"]
            samples, agree, breakdown = per_layer(plain, traced, tag)
            correct = correct and agree
        else:
            wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        values = samples.get(m["name"], [])
        if not values:
            correct = False
            print(f"no samples for {m['name']}")
            continue
        median = statistics.median(values)
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
        label, top = supported_percentile(values)
        print(f"{m['name']}: median {median:.6g} {m['unit']}, {label} {top:.6g}, n={len(values)}")
    print(f"fail_frac: {failed}/{len(children)} = {failed / len(children):.3g}")
    meta = metadata(args)
    print("meta: " + json.dumps(meta))
    record = {"meta": meta, "samples": samples, "metrics": metrics, "per_size": breakdown}
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {"correct": correct, "attempted": len(children), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
