#!/usr/bin/env python
"""CI determinism guard: serial, parallel, and timeline runs must agree.

Runs one fixed-seed Fig.-4 point set three ways — as point and merge
tasks under the flow runner with one worker and with two
(``FlowRunner(jobs=1)`` vs ``FlowRunner(jobs=2)``, the fan-out behind
``flow run --jobs`` and ``python -m repro <experiment> --jobs``), and
serially with windowed telemetry + invariant watchdog enabled
(``REPRO_TIMELINE=1``) — serializes each merged result to canonical
JSON, and fails (exit 1) if any pair differs by a single byte.  This is
the executable form of two contracts: worker scheduling must never
influence results (``repro.flow.runner``), and the timeline sampler is
an observer whose boundary events never perturb simulated metrics
(``repro.obs.timeline``).

A **sharded leg** extends the guard to the rack (``repro.cluster``): the
same fixed-seed rack scenario at 1, 2 and 4 shards must produce
byte-identical ``simulated`` blocks — the conservative window-barrier
protocol's layout-independence contract.  The leg then repeats every
shard count with **rack telemetry enabled** (host-scoped spans, windowed
timelines + watchdog, barrier profiling — ``repro.obs.rack``) and holds
those digests to the same reference: observability is an observer at
rack scale too, or this guard fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.experiments.fig4 import fig4_points  # noqa: E402
from repro.flow.graph import TaskGraph  # noqa: E402
from repro.flow.runner import FlowRunner  # noqa: E402
from repro.flow.tasks import sweep_tasks  # noqa: E402
from repro.parallel import run_sweep  # noqa: E402
from repro.units import MS  # noqa: E402

SEED = 1
QUOTAS = (8, 4)
WARMUP_NS = 20 * MS
MEASURE_NS = 60 * MS

#: sharded-leg parameters: shard layouts compared and the rack windows
RACK_SHARDS = (1, 2, 4)
RACK_WARMUP_NS = 1 * MS
RACK_MEASURE_NS = 6 * MS


def _canonical_json(results) -> str:
    return json.dumps([dataclasses.asdict(p) for p in results.values()], sort_keys=True,
                      indent=1)


def _flow_run(points, jobs: int):
    """The merged fig4 result of one flow run over the points."""
    with tempfile.TemporaryDirectory(prefix="determinism-guard-") as state_root:
        result = FlowRunner(TaskGraph(sweep_tasks("fig4-udp", points)),
                            state_root=state_root, jobs=jobs, echo=None).run()
    if not result.ok:
        for error in result.failed.values():
            print(error, end="", file=sys.stderr)
        raise SystemExit(1)
    return result.results["fig4-udp"]


def _diff(label_a: str, a: str, label_b: str, b: str) -> None:
    print(f"DETERMINISM GUARD FAILED: {label_a} and {label_b} results differ",
          file=sys.stderr)
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines())):
        if la != lb:
            print(f"  line {i}: {label_a:<8} {la}", file=sys.stderr)
            print(f"  line {i}: {label_b:<8} {lb}", file=sys.stderr)


def main() -> int:
    points = fig4_points("udp", quotas=QUOTAS, seed=SEED, warmup_ns=WARMUP_NS,
                         measure_ns=MEASURE_NS)
    serial = _canonical_json(_flow_run(points, jobs=1))
    parallel = _canonical_json(_flow_run(points, jobs=2))
    if serial != parallel:
        _diff("serial", serial, "parallel", parallel)
        return 1
    prev_timeline = os.environ.get("REPRO_TIMELINE")
    os.environ["REPRO_TIMELINE"] = "1"
    try:
        timeline = _canonical_json(run_sweep(points))
    finally:
        if prev_timeline is None:
            del os.environ["REPRO_TIMELINE"]
        else:
            os.environ["REPRO_TIMELINE"] = prev_timeline
    if serial != timeline:
        _diff("plain", serial, "timeline", timeline)
        return 1
    print(f"determinism guard OK: fig4 udp seed={SEED} quotas={QUOTAS} "
          "identical under FlowRunner(jobs=1), FlowRunner(jobs=2), and serially "
          "with the timeline sampler enabled")

    # Sharded leg: the rack's simulated block is layout-invariant.
    from repro.cluster import (
        RackTelemetry,
        reduced_rack_spec,
        run_rack_once,
        simulated_digest,
    )

    spec = reduced_rack_spec(seed=SEED)
    digests = {}
    for n_shards in RACK_SHARDS:
        report = run_rack_once(spec, n_shards, RACK_MEASURE_NS,
                               warmup_ns=RACK_WARMUP_NS)
        digests[n_shards] = simulated_digest(report)
    reference = RACK_SHARDS[0]
    for n_shards in RACK_SHARDS[1:]:
        if digests[n_shards] != digests[reference]:
            _diff(f"{reference}-shard", digests[reference],
                  f"{n_shards}-shard", digests[n_shards])
            return 1
    print(f"determinism guard OK: rack seed={SEED} simulated block "
          f"byte-identical at {RACK_SHARDS} shards")

    # Telemetry leg: rack observability (spans + timeline + watchdog +
    # barrier profiling) must not move a single simulated byte, at any
    # shard count, relative to the *un-instrumented* reference above.
    telemetry = RackTelemetry()
    for n_shards in RACK_SHARDS:
        report = run_rack_once(spec, n_shards, RACK_MEASURE_NS,
                               warmup_ns=RACK_WARMUP_NS, telemetry=telemetry)
        instrumented = simulated_digest(report)
        if instrumented != digests[reference]:
            _diff("plain-rack", digests[reference],
                  f"telemetry-{n_shards}-shard", instrumented)
            return 1
        if "telemetry" not in report:
            print("DETERMINISM GUARD FAILED: telemetry run produced no "
                  "telemetry block", file=sys.stderr)
            return 1
    print(f"determinism guard OK: rack telemetry is observer-only — "
          f"simulated block unchanged at {RACK_SHARDS} shards with spans, "
          "timeline, watchdog and barrier profiling enabled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
