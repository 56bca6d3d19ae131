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


PER_LAYER = json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]


def canned_trace_stdout(shares, digest="0dc012978a5e4163"):
    """What ``perfbench/run.py --trace 1`` prints: the per-layer metrics,
    with ``shares`` as the ``<layer>.share`` values and 0 elsewhere."""
    values = {m["name"]: shares.get(m["name"][:-len(".share")], 0.0)
              if m["name"].endswith(".share") else 0.0 for m in PER_LAYER}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in PER_LAYER}
    return "\n".join([
        "workload ping_mux seed=1 trace=1",
        f"digest {digest} (12012 latency samples)",
        "host calibration sim.noop_event_ns = 2362.0 ns",
        "check ok   at least 1000 latency samples",
        *(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}" for m in PER_LAYER),
        json.dumps({"correct": True, "attempted": 12012, "failed": 0, "metrics": metrics}),
    ]) + "\n"


class TestTraceExplanation:
    BASE = {"sim": 0.20, "hw": 0.22, "kvm": 0.15, "guest": 0.179, "sched": 0.10}
    CHANGE = {"sim": 0.23, "hw": 0.25, "kvm": 0.16, "guest": 0.096, "sched": 0.10}

    def moves(self):
        base = paired_bench.parse_run(canned_trace_stdout(self.BASE))
        change = paired_bench.parse_run(canned_trace_stdout(self.CHANGE))
        return paired_bench.share_moves(PER_LAYER, base, change)

    def test_every_layer_share_largest_move_first(self):
        moves = self.moves()
        layers = [m["name"][:-len(".share")] for m in PER_LAYER if m["name"].endswith(".share")]
        assert sorted(layer for layer, _, _ in moves) == sorted(layers)
        assert [layer for layer, _, _ in moves[:3]] == ["guest", "hw", "sim"]
        assert moves[0] == ("guest", 0.179, 0.096)
        gaps = [abs(change - base) for _, base, change in moves]
        assert gaps == sorted(gaps, reverse=True)

    def test_markdown_rows(self):
        lines = paired_bench.format_share_moves("ping_mux", self.moves())
        assert lines[0].startswith("layer shares of `ping_mux` under --trace 1")
        assert lines[3] == "| `guest` | 17.9% | 9.6% | -8.3 pts |"
        assert lines[4] == "| `hw` | 22.0% | 25.0% | +3.0 pts |"

    def test_only_worse_or_unresolved_workloads_are_traced(self):
        rows = []
        for workload, pick in (("stream_exit", 1.0), ("ping_mux", 0.7), ("rack_kv", 1.0)):
            rows += paired_bench.table_rows(workload, END_TO_END, [run(s) for s in BASE],
                                            [run(s * pick) for s in BASE])
        spread_base = [1.0, 1.3, 0.8, 1.25, 0.95, 1.1, 0.7, 1.2, 0.9, 1.05]
        rows += paired_bench.table_rows("stream_poll", END_TO_END,
                                        [run(s) for s in spread_base],
                                        [run(s * 1.01) for s in spread_base])
        verdicts = {(r.workload, r.verdict) for r in rows if r.metric == "sim_ms_per_s"}
        assert ("ping_mux", "worse") in verdicts and ("stream_poll", "unresolved") in verdicts
        assert paired_bench.needs_trace(rows) == ["ping_mux", "stream_poll"]

    @staticmethod
    def setup_run(setup_s, speed=100.0):
        values = {m["name"]: 1.0 for m in END_TO_END}
        values.update(setup_s=setup_s, sim_ms_per_s=speed)
        return paired_bench.parse_run(canned_stdout(values))

    def test_an_unresolved_setup_row_alone_is_not_traced(self):
        """The tracer times the run loop, never set-up: a set-up row it
        cannot explain triggers no traced run."""
        spread_base = [1.0, 1.5, 0.6, 1.45, 0.9, 1.2, 0.5, 1.4, 0.8, 1.1]
        rows = paired_bench.table_rows("stream_exit", END_TO_END,
                                       [self.setup_run(s) for s in spread_base],
                                       [self.setup_run(s * 1.01) for s in spread_base])
        verdicts = {r.metric: r.verdict for r in rows}
        assert verdicts["setup_s"] == "unresolved"
        assert {v for m, v in verdicts.items() if m != "setup_s"} == {"unchanged"}
        assert paired_bench.needs_trace(rows) == []

    def test_a_worse_speed_row_is_traced(self):
        rows = paired_bench.table_rows("stream_exit", END_TO_END,
                                       [self.setup_run(1.0, s) for s in BASE],
                                       [self.setup_run(1.0, s * 0.7) for s in BASE])
        assert {r.metric: r.verdict for r in rows}["sim_ms_per_s"] == "worse"
        assert paired_bench.needs_trace(rows) == ["stream_exit"]
