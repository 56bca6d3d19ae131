"""Rack smoke: the sharded scenario at 1 and 4 shards, asserted equal.

Windows are far below the experiment defaults; the point is driving the
whole sharded stack — topology partitioning, fork workers, window
barriers, cross-shard routing, result merging — and asserting the
byte-identity and reporting contracts, not performance.
"""

from __future__ import annotations

import json
import time

from repro.cluster import reduced_rack_spec, run_rack_once, simulated_digest
from repro.parallel import run_sweep
from repro.units import MS

from tests.artifact_checks import check_page, check_trace

WARMUP = 1 * MS
MEASURE = 6 * MS


def test_rack_1_vs_4_shards_identical():
    spec = reduced_rack_spec(cpu_burn=False)
    t0 = time.monotonic()
    single = run_rack_once(spec, 1, MEASURE, warmup_ns=WARMUP)
    quad = run_rack_once(spec, 4, MEASURE, warmup_ns=WARMUP)
    elapsed = time.monotonic() - t0
    assert simulated_digest(single) == simulated_digest(quad)
    totals = quad["simulated"]["totals"]
    assert totals["ops_completed"] > 0
    assert totals["requests_served"] > 0
    assert totals["unroutable"] == 0
    assert totals["messages_delivered"] > 0
    # Round-robin partitioning splits client/server pairs, so a 4-shard
    # run of an 8-host rack must exchange real cross-shard traffic.
    assert quad["perf"]["messages_cross_shard"] > 0
    assert single["perf"]["messages_cross_shard"] == 0
    assert elapsed < 60.0


def test_rack_perf_block_shape():
    spec = reduced_rack_spec(cpu_burn=False)
    report = run_rack_once(spec, 4, MEASURE, warmup_ns=WARMUP)
    perf = report["perf"]
    assert perf["barrier_rounds"] == (WARMUP + MEASURE) // spec.lookahead_ns
    assert perf["aggregate_events_per_sec"] > 0
    assert len(perf["shards"]) == 4
    seen_hosts = [h for s in perf["shards"] for h in s["hosts"]]
    assert sorted(seen_hosts) == sorted(spec.hosts)
    for shard in perf["shards"]:
        assert shard["events_fired"] > 0
        assert 0.0 <= shard["barrier_wait_fraction"] < 1.0


def test_rack_experiment_and_formatter():
    from repro.experiments.rack import format_rack, rack_identical, rack_points

    results = run_sweep(rack_points(configs=("PI+H+R",), shard_counts=(1, 2),
                                    warmup_ns=WARMUP, measure_ns=MEASURE))
    assert list(results) == [("PI+H+R", 1), ("PI+H+R", 2)]
    assert rack_identical(results) == {"PI+H+R": True}
    table = format_rack(results)
    assert "PI+H+R" in table and "identical" in table
    assert "Rack telemetry (PI+H+R, 2 shards)" in table


def test_rack_cli_writes_trace_and_dashboard(tmp_path, capsys):
    from repro.__main__ import main

    trace, dash = tmp_path / "rack.perfetto.json", tmp_path / "rack.html"
    assert main(["rack", "--measure-ms", "3", "--warmup-ms", "1", "--shards", "2",
                 "--configs", "Baseline", "PI+H+R", "--trace", str(trace),
                 "--dashboard", str(dash)]) == 0
    out = capsys.readouterr().out
    assert str(trace) in out and str(dash) in out
    # The telemetry report, the trace and the dashboard show the last config's cell.
    assert out.count("(PI+H+R, 2 shards)") == 3 and "(Baseline, 2 shards)" not in out
    events = check_trace(json.loads(trace.read_text(encoding="utf-8")), phases="MXCi")
    assert any(e["ph"] == "X" for e in events)
    check_page(dash.read_text(encoding="utf-8"))
