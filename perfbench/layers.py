"""Per-layer metrics from the spans of one traced run (see tracer.py).

A span's self time is its duration minus the durations of its direct
children; spans of one process nest strictly, so that is the time not
covered by child spans.
"""

from __future__ import annotations

from collections import defaultdict

NS = 1e-9
ANNEAL = "optimize.anneal_discrete"
PAIR_KERNEL = ("energy.pair_quotients", "energy.log_pair_sum")
OUTPUT = ("cli.emit", "optimize.trace_to_csv", "interpolate.junctions_to_text")
BIARC = "biarc.build_balanced_biarc"
# Computed, not measured: bytes of the float64 arrays of n*n elements one
# pair_quotients call materialises (diff 3, dist2 1, along 1, along*tangent 3,
# perp 3, h 1, x 1) plus its boolean mask, and the six further arrays
# log_pair_sum builds (weights, their log, the positive mask, log x, q log x,
# terms).
PAIR_QUOTIENTS_BYTES_PER_PAIR = 13 * 8 + 1
LOG_PAIR_SUM_BYTES_PER_PAIR = 6 * 8


def _is_dispatch(name: str) -> bool:
    return name == "cli.main" or name.startswith("cli.cmd_")


def span_summary(trace: dict) -> tuple[dict, dict]:
    """Calls, total and self seconds per span name, and the same per
    (name, input size), from the raw spans."""
    names, spans = trace["names"], trace["spans"]
    self_ns = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    per_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size_sum": 0})
    per_size = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name_id, start, end, _, size), own in zip(spans, self_ns):
        name = names[name_id]
        for entry in (per_name[name], per_size[(name, size)]):
            entry["calls"] += 1
            entry["total_s"] += (end - start) * NS
            entry["self_s"] += own * NS
        per_name[name]["size_sum"] += size or 0
    return dict(per_name), dict(per_size)


def layer_metrics(trace: dict, steps: int, accepted: int) -> dict:
    """The per-layer metrics of one traced run. `steps` and `accepted` come
    from the anneal trace CSV (0 on other workloads)."""
    names, spans = trace["names"], trace["spans"]
    per_name, _ = span_summary(trace)

    def stat(name, key):
        return per_name.get(name, {}).get(key, 0)

    in_anneal = [False] * len(spans)
    in_kernel = [False] * len(spans)
    pairs = bytes_computed = quadrature_cells = 0
    kernel_calls_in_anneal = biarcs_in_anneal = 0
    for i, (name_id, _, _, parent, size) in enumerate(spans):
        name = names[name_id]
        if parent >= 0:
            parent_name = names[spans[parent][0]]
            in_anneal[i] = in_anneal[parent] or parent_name == ANNEAL
            in_kernel[i] = in_kernel[parent] or parent_name in PAIR_KERNEL
        if name == "energy.pair_quotients":
            pairs += size * (size - 1)
            bytes_computed += PAIR_QUOTIENTS_BYTES_PER_PAIR * size * size
        elif name == "energy.log_pair_sum":
            bytes_computed += LOG_PAIR_SUM_BYTES_PER_PAIR * size * size
        elif name == "energy.continuous_tp_energy":
            quadrature_cells += size * size
        if in_anneal[i]:
            kernel_calls_in_anneal += name in PAIR_KERNEL and not in_kernel[i]
            biarcs_in_anneal += name == BIARC

    main_s = stat("cli.main", "total_s")
    dispatch_self = sum(v["self_s"] for k, v in per_name.items() if _is_dispatch(k))
    kernel_s = stat("energy.pair_quotients", "self_s") + stat("energy.log_pair_sum", "self_s")
    biarc_calls = stat(BIARC, "calls")
    per_step = 1.0 / steps if steps else 0.0
    return {
        "cli.import_s": trace["import_s"],
        "cli.output_s": sum(stat(name, "total_s") for name in OUTPUT),
        "curve.mollify.self_s": stat("curve.mollify", "self_s"),
        "curve.arclength_reparametrize.self_s": stat("curve.arclength_reparametrize", "self_s"),
        "curve.gagliardo_seminorm.self_s": stat("curve.gagliardo_seminorm", "self_s"),
        "curve.spec_eval.self_s": stat("curve.spec_eval", "self_s"),
        "curve.points_evaluated": stat("curve.spec_eval", "size_sum"),
        "biarc.build_balanced_biarc.calls": biarc_calls,
        "biarc.us_per_biarc": stat(BIARC, "total_s") / biarc_calls * 1e6 if biarc_calls else 0.0,
        "interpolate.build_biarc_curve.self_s": stat("interpolate.build_biarc_curve", "self_s"),
        "interpolate.biarcs_built": stat("interpolate.from_junctions", "size_sum"),
        "energy.pair_kernel.self_s": kernel_s,
        "energy.pairs_evaluated": pairs,
        "energy.pair_kernel.ns_per_pair": kernel_s / pairs * 1e9 if pairs else 0.0,
        "energy.pair_kernel.bytes_computed": bytes_computed,
        "energy.log_pair_sum.self_s": stat("energy.log_pair_sum", "self_s"),
        "energy.continuous_tp_energy.self_s": stat("energy.continuous_tp_energy", "self_s"),
        "energy.quadrature_cells": quadrature_cells,
        "energy.thickness_and_ropelength.self_s": stat("energy.thickness_and_ropelength", "self_s"),
        "energy.thickness.objective_evals": trace["counts"]["thickness.objective_evals"],
        "optimize.anneal_discrete.self_s": stat(ANNEAL, "self_s"),
        "optimize.us_per_step": stat(ANNEAL, "total_s") * per_step * 1e6,
        "optimize.pair_kernel_calls_per_step": kernel_calls_in_anneal * per_step,
        "optimize.biarc_builds_per_step": biarcs_in_anneal * per_step,
        "optimize.accept_ratio": accepted * per_step,
        "trace.coverage": 1.0 - dispatch_self / main_s if main_s else 0.0,
    }


# Exact counts: they depend only on the argv and the seed, so two traced runs
# of one seed must give identical values.
EXACT_COUNTS = (
    "curve.points_evaluated",
    "biarc.build_balanced_biarc.calls",
    "interpolate.biarcs_built",
    "energy.pairs_evaluated",
    "energy.pair_kernel.bytes_computed",
    "energy.quadrature_cells",
    "energy.thickness.objective_evals",
    "optimize.pair_kernel_calls_per_step",
    "optimize.biarc_builds_per_step",
    "optimize.accept_ratio",
)
