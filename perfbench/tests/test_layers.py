"""Self time and the derived per-layer metrics, on a hand-made span list."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402

MS = 1_000_000  # ns

NAMES = [
    "cli.main",
    "cli.cmd_anneal",
    "optimize.anneal_discrete",
    "energy.log_pair_sum",
    "energy.pair_quotients",
    "biarc.build_balanced_biarc",
    "cli.emit",
]
# [name index, start, end, parent, size]: main > cmd > anneal > (log_pair_sum
# > pair_quotients, pair_quotients, biarc), then emit under cmd
SPANS = [
    [0, 0, 100 * MS, -1, None],
    [1, 1 * MS, 99 * MS, 0, None],
    [2, 2 * MS, 80 * MS, 1, 8],
    [3, 3 * MS, 23 * MS, 2, 8],
    [4, 4 * MS, 14 * MS, 3, 8],
    [4, 30 * MS, 40 * MS, 2, 4],
    [5, 50 * MS, 60 * MS, 2, None],
    [6, 85 * MS, 95 * MS, 1, None],
]
TRACE = {"names": NAMES, "spans": SPANS, "counts": {"thickness.objective_evals": 7}, "import_s": 0.5}


def test_self_time_is_duration_minus_children():
    per_name, per_size = layers.span_summary(TRACE)
    assert per_name["optimize.anneal_discrete"]["self_s"] == pytest.approx(0.078 - 0.020 - 0.010 - 0.010)
    assert per_name["energy.log_pair_sum"]["self_s"] == pytest.approx(0.010)
    assert per_name["energy.pair_quotients"]["calls"] == 2
    assert per_size[("energy.pair_quotients", 4)]["total_s"] == pytest.approx(0.010)


def test_layer_metrics():
    m = layers.layer_metrics(TRACE, steps=4, accepted=3)
    assert m["energy.pairs_evaluated"] == 8 * 7 + 4 * 3
    assert m["energy.pair_kernel.self_s"] == pytest.approx(0.030)
    # the nested pair_quotients call belongs to the log_pair_sum call
    assert m["optimize.pair_kernel_calls_per_step"] == pytest.approx(2 / 4)
    assert m["optimize.biarc_builds_per_step"] == pytest.approx(1 / 4)
    assert m["optimize.accept_ratio"] == pytest.approx(3 / 4)
    assert m["optimize.us_per_step"] == pytest.approx(78_000 / 4)
    assert m["cli.output_s"] == pytest.approx(0.010)
    assert m["energy.thickness.objective_evals"] == 7
    # dispatch self time: main 100-98 = 2 ms, cmd 98-78-10 = 10 ms
    assert m["trace.coverage"] == pytest.approx(1 - 0.012 / 0.100)
