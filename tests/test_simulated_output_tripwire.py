"""Tripwire: the benchmark workloads' simulated output at a fixed seed.

Each workload of ``BENCHMARK.json`` is built at seed 1 through
``perfbench/workloads.py``, its window is opened, it advances one timed
chunk, and the digest of its simulated metrics and per-layer counts is
compared with a pinned constant.  A refactor or speed-up of the event
path must leave every digest unchanged.  A change that moves simulated
output on purpose updates the constant in the same commit and says why
in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", _ROOT / "perfbench" / "workloads.py")
workloads = sys.modules["perfbench_workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 1

#: ``digest({"simulated": ..., "counts": ...})`` after one chunk at seed 1;
#: equal on CPython 3.9, 3.11, 3.12 and 3.13
PINNED = {
    "stream_exit": "fb842b630029b5b3",
    "stream_poll": "2faabe22e3716ad5",
    "ping_mux": "3c3d7b56d2b5dab4",
    "rack_kv": "b35d4399d359d151",
}


def test_every_benchmark_workload_is_pinned():
    assert set(PINNED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulated_output_matches_the_pinned_digest(name):
    workload = workloads.WORKLOADS[name]
    run = workload.build(SEED)
    run.open_window()
    run.advance(workload.chunk_ns)
    readout = run.readout()
    assert workloads.digest({"simulated": readout["simulated"],
                             "counts": readout["counts"]}) == PINNED[name]
