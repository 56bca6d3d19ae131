"""Rack-scale scenario: the paper's server host multiplied across a rack.

A grid of (ES2 configuration x shard count) runs of the same rack
topology — memcached/apache-style request fan-out from bare-metal client
hosts to every server VM — driven by the sharded simulator
(:mod:`repro.cluster`).  Two claims are on display:

* **fidelity**: the simulated metrics of a rack run are byte-identical
  under every shard count (the conservative window-barrier protocol adds
  parallelism, not noise), checked here on every run;
* **scaling**: aggregate events/sec grows with shard count — each shard
  is its own Python interpreter, so the rack simulates at multi-core
  speed instead of being bound by one event loop.

The grid is declared like every figure sweep, one ``SweepPoint`` per
``(config, n_shards)`` cell (:func:`rack_points`), so the flow runs each
cell as a point task; a cell's shards are processes of that task.  Every
cell runs with rack telemetry on (stitched spans, per-host steady rates,
watchdog, barrier profile): observer-only, so the digest identity check
is unchanged by it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster import (
    RackSpec,
    RackTelemetry,
    ShardedSimulator,
    reduced_rack_spec,
    simulated_digest,
)
from repro.metrics.report import format_table
from repro.obs.rack import format_rack_telemetry, rack_perfetto_trace
from repro.parallel import SweepPoint
from repro.units import MS

__all__ = ["rack_points", "rack_trace", "format_rack", "rack_identical", "showcase_key",
           "FLOW_REDUCED", "DEFAULT_SHARD_COUNTS", "DEFAULT_RACK_CONFIGS"]

#: shard counts every rack run compares (the scaling axis)
DEFAULT_SHARD_COUNTS = (1, 4)
#: the end-to-end ES2 ablation the rack reports (off vs everything on)
DEFAULT_RACK_CONFIGS = ("Baseline", "PI+H", "PI+H+R")

#: Reduced-mode window overrides for the DAG runner (repro.flow.tasks).
FLOW_REDUCED = dict(warmup_ns=1 * MS, measure_ns=8 * MS)


def rack_spec(config: str = "PI+H+R", application: str = "memcached",
              seed: int = 3, **overrides) -> RackSpec:
    """The experiment's rack: the CI-sized topology under one config."""
    quota = 8 if application == "memcached" else 4
    return reduced_rack_spec(
        config=config, application=application, seed=seed, quota=quota,
        cpu_burn=True, **overrides,
    )


def _rack_run(config: str, n_shards: int, application: str, seed: int,
              warmup_ns: int, measure_ns: int) -> Tuple[ShardedSimulator, dict]:
    """One cell, telemetry on: its coordinator and its report."""
    sim = ShardedSimulator(rack_spec(config=config, application=application, seed=seed),
                           n_shards=n_shards, telemetry=RackTelemetry())
    return sim, sim.run(measure_ns, warmup_ns=warmup_ns)


def _rack_cell(**params) -> dict:
    """One point of the grid: the cell's report."""
    return _rack_run(**params)[1]


def rack_points(
    configs: Sequence[str] = DEFAULT_RACK_CONFIGS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    application: str = "memcached",
    seed: int = 3,
    warmup_ns: int = 2 * MS,
    measure_ns: int = 20 * MS,
) -> List[SweepPoint]:
    """The rack grid: one point per cell, keyed ``(config, n_shards)``."""
    return [
        SweepPoint(
            key=(config, n_shards),
            fn=_rack_cell,
            kwargs=dict(config=config, n_shards=n_shards, application=application,
                        seed=seed, warmup_ns=warmup_ns, measure_ns=measure_ns),
        )
        for config in configs
        for n_shards in shard_counts
    ]


def rack_trace(point: SweepPoint) -> dict:
    """The merged Perfetto document of one cell.

    The cell runs again: the per-host bundles the export reads stay on
    the coordinator and never enter a point's result.
    """
    sim, report = _rack_run(**point.kwargs)
    return rack_perfetto_trace(report, sim.host_telemetry)


def rack_identical(results: Dict[Tuple[str, int], dict]) -> Dict[str, bool]:
    """Per config: did every shard count produce the same simulated bytes?"""
    verdict: Dict[str, bool] = {}
    for config in sorted({c for (c, _) in results}):
        digests = {simulated_digest(r) for (c, _), r in results.items() if c == config}
        verdict[config] = len(digests) == 1
    return verdict


def showcase_key(results: Dict[Tuple[str, int], dict]) -> Tuple[str, int]:
    """The cell the telemetry views show: the last config, at its most shards."""
    last = list(results)[-1][0]
    return max((key for key in results if key[0] == last), key=lambda key: key[1])


def format_rack(results: Dict[Tuple[str, int], dict]) -> str:
    """Render the rack grid as a paper-style text table, followed by the
    showcase cell's rack observability report."""
    identical = rack_identical(results)
    rows = []
    base_ops = None
    for (config, n_shards), report in results.items():
        totals = report["simulated"]["totals"]
        perf = report["perf"]
        if base_ops is None:
            base_ops = totals["ops_per_sec"] or 1.0
        waits = [s["barrier_wait_fraction"] for s in perf["shards"]]
        rows.append([
            config,
            str(n_shards),
            f"{totals['ops_per_sec']:.0f}",
            f"{totals['ops_per_sec'] / base_ops:.2f}x",
            f"{totals['latency_mean_us']:.0f}",
            f"{totals['latency_p99_max_us']:.0f}",
            f"{perf['aggregate_events_per_sec']:.0f}",
            f"{max(waits):.2f}" if waits else "-",
            str(perf["messages_cross_shard"]),
            "yes" if identical[config] else "NO",
        ])
    table = format_table(
        ["Config", "Shards", "ops/s", "vs base", "lat mean (us)",
         "lat p99 (us)", "agg ev/s", "barrier wait", "cross msgs", "identical"],
        rows,
        title="Rack: sharded multi-host simulation "
              "(fan-out clients -> ES2 server hosts)",
    )
    config, n_shards = showcase_key(results)
    return (
        table
        + f"\n\nRack telemetry ({config}, {n_shards} shards)\n"
        + format_rack_telemetry(results[(config, n_shards)]["telemetry"])
    )
