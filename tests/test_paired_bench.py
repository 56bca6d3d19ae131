"""Statistics and verdicts of ``scripts/paired_bench.py``, on canned runs."""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", _ROOT / "scripts" / "paired_bench.py")
paired_bench = sys.modules["paired_bench"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

END_TO_END = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def canned_stdout(values, digest="9f282430a6a9f273", correct=True, failed=0):
    """What ``perfbench/run.py --trace 0`` prints, with ``values`` as metrics."""
    metrics = {name: {"value": value, "unit": "u"} for name, value in values.items()}
    return "\n".join([
        "workload stream_exit seed=1 trace=0",
        f"digest {digest} (1199 latency samples)",
        "host calibration sim.noop_event_ns = 2362.0 ns",
        "info sim_ms_per_s before normalising = 91.2",
        f"check {'ok  ' if correct else 'FAIL'} at least 1000 latency samples",
        *(f"metric {name} = {value:.6g} u" for name, value in values.items()),
        json.dumps({"correct": correct, "attempted": 4000,
                    "failed": failed if correct else 4000, "metrics": metrics}),
    ]) + "\n"


def run(speed, digest="9f282430a6a9f273"):
    values = {m["name"]: 1.0 for m in END_TO_END}
    values["sim_ms_per_s"] = speed
    return paired_bench.parse_run(canned_stdout(values, digest))


class TestParse:
    def test_reads_digest_metrics_and_failures(self):
        r = paired_bench.parse_run(canned_stdout({"sim_ms_per_s": 103.5, "tig": 0.58},
                                                 correct=False))
        assert r.digest == "9f282430a6a9f273"
        assert r.metrics == {"sim_ms_per_s": 103.5, "tig": 0.58}
        assert (r.correct, r.attempted, r.failed) == (False, 4000, 4000)


class TestSpread:
    def test_quartile_distance(self):
        values = [100, 102, 98, 105, 101, 99, 103, 97, 104, 100]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert paired_bench.spread(values) == q3 - q1

    @pytest.mark.parametrize("values", [[], [5.0]])
    def test_too_few_values_have_no_spread(self, values):
        assert paired_bench.spread(values) == 0.0


BASE = [100, 102, 98, 105, 101, 99, 103, 97, 104, 100]  # median 100.5, IQR 4.5


class TestVerdict:
    def test_improved_needs_nine_in_ten_and_a_gap_beyond_the_iqr(self):
        change = [b * 1.14 for b in BASE]
        assert paired_bench.verdict("higher", 0.25, BASE, change) == "improved"

    def test_eight_wins_in_ten_is_not_a_gain(self):
        change = [b * 1.14 for b in BASE[:8]] + [b * 0.99 for b in BASE[8:]]
        assert paired_bench.wins("higher", BASE, change) == 8
        assert paired_bench.verdict("higher", 0.25, BASE, change) == "unchanged"

    def test_a_gain_inside_the_iqr_is_not_a_gain(self):
        change = [b + 1 for b in BASE]  # wins every pair, by less than the IQR
        assert paired_bench.wins("higher", BASE, change) == 10
        assert paired_bench.verdict("higher", 0.25, BASE, change) == "unchanged"

    def test_ties_count_for_neither_side(self):
        assert paired_bench.wins("higher", BASE, BASE) == 0
        assert paired_bench.verdict("higher", 0.1, BASE, BASE) == "unchanged"

    def test_worse_beyond_the_bound(self):
        change = [b * 0.7 for b in BASE]
        assert paired_bench.verdict("higher", 0.25, BASE, change) == "worse"
        assert paired_bench.verdict("higher", 0.25, BASE, [b * 0.8 for b in BASE]) == \
            "unchanged"

    def test_direction_follows_better(self):
        setup = [0.24, 0.25, 0.23, 0.26, 0.24, 0.25, 0.24, 0.23, 0.25, 0.24]
        assert paired_bench.verdict("lower", 0.25, setup, [s * 0.5 for s in setup]) == \
            "improved"
        assert paired_bench.verdict("lower", 0.25, setup, [s * 1.5 for s in setup]) == \
            "worse"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        base = [1.0, 1.3, 0.8, 1.25, 0.95, 1.1, 0.7, 1.2, 0.9, 1.05]
        change = [1.02, 1.1, 0.85, 1.2, 1.0, 1.05, 0.75, 1.15, 0.95, 1.0]
        assert paired_bench.spread(base) / statistics.median(base) > 0.1
        assert paired_bench.verdict("higher", 0.1, base, change) == "unresolved"

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        base = [1.0, 1.3, 0.8, 1.25, 0.95, 1.1, 0.7, 1.2, 0.9, 1.05]
        change = [1.31 + i / 100 for i in range(10)]
        assert paired_bench.verdict("higher", 0.1, base, change) != "unresolved"


class TestTable:
    def test_one_row_per_benchmark_metric_in_file_order(self):
        rows = paired_bench.table_rows("stream_exit", END_TO_END,
                                       [run(s) for s in BASE], [run(s * 1.14) for s in BASE])
        assert [r.metric for r in rows] == [m["name"] for m in END_TO_END]
        speed = rows[[m["name"] for m in END_TO_END].index("sim_ms_per_s")]
        assert speed.verdict == "improved" and speed.won == 10 and speed.pairs == 10
        assert speed.change_pct == pytest.approx(14.0)
        assert speed.base_spread_pct == pytest.approx(4.5 / 100.5 * 100)
        assert speed.digests_equal
        assert {r.verdict for r in rows if r.metric != "sim_ms_per_s"} == {"unchanged"}

    def test_one_differing_digest_marks_the_workload(self):
        change = [run(s) for s in BASE]
        change[3] = run(BASE[3], digest="0000000000000000")
        rows = paired_bench.table_rows("stream_exit", END_TO_END,
                                       [run(s) for s in BASE], change)
        assert not any(r.digests_equal for r in rows)
        assert "| NO |" in paired_bench.format_table(rows)[2]

    def test_markdown_row(self):
        rows = paired_bench.table_rows("stream_exit", END_TO_END[1:2],
                                       [run(s) for s in BASE], [run(s * 1.14) for s in BASE])
        assert paired_bench.format_table(rows)[2] == (
            "| `stream_exit` | `sim_ms_per_s` (ms/s) | 100.5 | 114.57 | +14.0% | 4.5% "
            "| 10/10 | yes | improved |")
