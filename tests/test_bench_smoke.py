"""Smoke benchmark: a reduced end-to-end sweep.

The windows are cut far below the paper runs so the whole module stays
within a one-minute budget while still driving the full stack: testbed
build, vhost hybrid path, redirection, the sweep runner and the
experiment formatters.
"""

from __future__ import annotations

import time

from repro.parallel import run_sweep
from repro.units import MS

#: reduced measurement windows (the paper runs use 200/500 ms)
WARMUP = 20 * MS
MEASURE = 60 * MS


def test_table1_smoke():
    from repro.experiments.table1 import format_table1, table1_points

    t0 = time.monotonic()
    results = run_sweep(table1_points(seed=1, warmup_ns=WARMUP, measure_ns=MEASURE))
    elapsed = time.monotonic() - t0
    assert set(results) == {"Baseline", "PI"}
    base, pi = results["Baseline"], results["PI"]
    # Directional paper anchors survive even tiny windows.
    assert pi.exit_rates.interrupt_delivery == 0
    assert base.exit_rates.interrupt_delivery > 0
    assert pi.throughput_gbps > base.throughput_gbps
    assert format_table1(results)
    assert elapsed < 30.0


def test_fig4_smoke():
    from repro.experiments.fig4 import fig4_points, format_fig4

    t0 = time.monotonic()
    results = run_sweep(fig4_points("udp", quotas=(8,), seed=1, warmup_ns=WARMUP,
                                    measure_ns=MEASURE))
    elapsed = time.monotonic() - t0
    stock, hybrid = results[None], results[8]
    # The hybrid quota-8 point eliminates nearly all I/O-instruction exits.
    assert hybrid.io_exit_rate < 0.05 * stock.io_exit_rate
    assert format_fig4(results, "udp")
    assert elapsed < 30.0
