"""The sharded rack simulator: conservative time-window parallel DES.

:class:`ShardedSimulator` partitions a :class:`~repro.cluster.topology.
RackSpec` into N shards, runs each shard in its own process (the
fork-preferring :func:`~repro.parallel.sweep.pool_context`, the same
context the flow runner's workers use), and drives the **window-barrier
protocol**:

1. every shard advances all of its hosts to the common window end
   ``T_k`` (window length = the spec's lookahead, so nothing emitted in
   a window can arrive before the next barrier);
2. at the barrier, shards hand their stamped cross-host messages to the
   coordinator, which routes them by destination host;
3. the next round begins with each shard injecting its inbound batch —
   globally sorted — through each host simulator's ingress queue, which
   re-validates the conservative invariant (stamp >= local clock).

No shard ever waits on another shard's *simulated* progress beyond the
barrier itself: every round advances every shard by exactly one window,
so the protocol cannot deadlock (there is no cyclic wait on per-peer
horizons — the barrier is global and unconditional).

With ``n_shards=1`` the same protocol runs inline in the calling
process: that is the single-process reference run, and the per-host
results it produces are byte-identical to any multi-process layout —
the contract the determinism guard's sharded leg enforces.

Observability piggybacks on the same pipes: each barrier reply carries
the shard's window wall time and cumulative event count (the barrier
profile's raw material), and the finish reply carries the per-host
telemetry bundles (span marks, timeline windows, watchdog verdicts).
The coordinator keeps those bundles as ``host_telemetry`` for the
merged Perfetto export, and :mod:`repro.obs.rack` stitches and
aggregates them into the report's compact ``telemetry`` block.  All of
it is observer-only — the ``simulated`` block never changes with
telemetry on or off.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import asdict
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.shard import Shard
from repro.cluster.topology import RackSpec, RackTelemetry
from repro.errors import ClusterError
from repro.obs.rack import build_rack_telemetry
from repro.parallel.sweep import pool_context

__all__ = ["ShardedSimulator", "run_rack_once", "simulated_digest"]


def _shard_main(conn, spec: RackSpec, host_names,
                telemetry: Optional[RackTelemetry] = None) -> None:
    """Worker-process entry point: build the shard, serve barrier rounds."""
    try:
        shard = Shard(spec, host_names, telemetry=telemetry)
        shard.start()
        barrier_wait_s = 0.0
        while True:
            t0 = perf_counter()
            cmd = conn.recv()
            wait_s = perf_counter() - t0
            barrier_wait_s += wait_s
            if cmd[0] == "window":
                _tag, t_end, inbound, mark_first = cmd
                conn.send(("out", *shard.barrier_round(t_end, inbound, mark_first, wait_s)))
            elif cmd[0] == "finish":
                conn.send(("results", *shard.finish(barrier_wait_s)))
                return
            else:  # pragma: no cover - protocol bug
                raise ClusterError(f"unknown shard command {cmd[0]!r}")
    except EOFError:
        return  # coordinator closed the pipe (it is unwinding an error)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
    finally:
        conn.close()


class ShardedSimulator:
    """Coordinator for one sharded rack run."""

    def __init__(self, spec: RackSpec, n_shards: int = 1,
                 telemetry: Optional[RackTelemetry] = None):
        spec.validate()
        self.spec = spec
        self.n_shards = n_shards
        self.telemetry = telemetry
        self.partitions = spec.partition(n_shards)
        self._host_shard = {h: s for s, hosts in enumerate(self.partitions)
                            for h in hosts}
        #: window_records[s][k] = shard s's {"wall_s","events","wait_s"}
        #: for barrier round k (filled during run)
        self._window_records: List[List[Dict[str, float]]] = []
        #: per-host telemetry bundles the shards shipped at finish (span
        #: marks, timeline windows, watchdog verdicts), set by run when
        #: telemetry is on; the report carries only their compact view
        self.host_telemetry: Optional[Dict[str, dict]] = None

    # ----------------------------------------------------------------- run
    def run(self, duration_ns: int, warmup_ns: int = 0) -> Dict[str, Any]:
        """Simulate the rack for ``warmup_ns + duration_ns`` and report.

        The measurement window opens at the first barrier at or past
        ``warmup_ns`` (client op counters and latency reset there) and
        closes at the final horizon.  The returned report separates
        ``simulated`` (layout-invariant, byte-comparable across shard
        counts) from ``perf`` (the rack's own wall clock: event rates,
        barrier waits) and — when a :class:`RackTelemetry` config was
        given — ``telemetry`` (stitched paths, rack-wide timeline,
        barrier profile; never feeds back into ``simulated``).
        """
        if duration_ns <= 0:
            raise ClusterError("rack run needs a positive measurement duration")
        if warmup_ns < 0:
            raise ClusterError("warmup must be non-negative")
        window = self.spec.lookahead_ns
        mark_window = -(-warmup_ns // window)          # ceil
        total_windows = mark_window + -(-duration_ns // window)
        self._window_records = [[] for _ in range(self.n_shards)]
        wall0 = perf_counter()
        if self.n_shards == 1:
            results, shard_stats, cross, self.host_telemetry = self._run_inline(
                window, total_windows, mark_window)
        else:
            results, shard_stats, cross, self.host_telemetry = self._run_processes(
                window, total_windows, mark_window)
        wall = perf_counter() - wall0
        return self._report(results, shard_stats, cross, window,
                            total_windows, mark_window, wall)

    def _route(self, outboxes: List[list]) -> Tuple[List[list], int]:
        """Group one round's emissions by destination shard.

        Returns the per-shard inbound batches and how many messages
        crossed a shard boundary (a layout property, reported under
        ``perf``, never under ``simulated``).
        """
        inbound = [[] for _ in range(self.n_shards)]
        cross = 0
        for src_shard, msgs in enumerate(outboxes):
            for msg in msgs:
                dst_shard = self._host_shard[msg[1]]
                if dst_shard != src_shard:
                    cross += 1
                inbound[dst_shard].append(msg)
        return inbound, cross

    def _run_inline(self, window, total_windows, mark_window):
        shard = Shard(self.spec, self.partitions[0], telemetry=self.telemetry)
        shard.start()
        pending = []
        for k in range(1, total_windows + 1):
            pending, wstats = shard.barrier_round(k * window, pending,
                                                  k - 1 == mark_window)
            self._window_records[0].append(wstats)
        results, stats, host_telemetry = shard.finish()
        return results, [stats], 0, host_telemetry

    def _run_processes(self, window, total_windows, mark_window):
        ctx = pool_context()
        conns, procs = [], []
        failed = False
        try:
            for host_names in self.partitions:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_shard_main,
                                   args=(child_conn, self.spec, host_names,
                                         self.telemetry))
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
            inbound = [[] for _ in range(self.n_shards)]
            cross_total = 0
            for k in range(1, total_windows + 1):
                mark_first = (k - 1 == mark_window)
                for conn, batch in zip(conns, inbound):
                    conn.send(("window", k * window, batch, mark_first))
                outboxes = []
                for s, conn in enumerate(conns):
                    reply = self._recv_raw(conn, procs, s)
                    outboxes.append(reply[1])
                    self._window_records[s].append(reply[2])
                inbound, cross = self._route(outboxes)
                cross_total += cross
            for conn in conns:
                conn.send(("finish",))
            results: Dict[str, dict] = {}
            shard_stats = []
            host_telemetry: Dict[str, dict] = {}
            for s, conn in enumerate(conns):
                reply = self._recv_raw(conn, procs, s)
                results.update(reply[1])
                shard_stats.append(reply[2])
                if reply[3]:
                    host_telemetry.update(reply[3])
            return results, shard_stats, cross_total, (host_telemetry or None)
        except BaseException:
            failed = True
            raise
        finally:
            if failed:
                # Fail fast: the surviving workers are blocked in recv();
                # closing their pipes (EOFError -> clean return) is usually
                # enough, but a wedged worker must not hang the join below.
                for proc in procs:
                    if proc.is_alive():
                        proc.terminate()
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join()

    @staticmethod
    def _recv_raw(conn, procs, shard_index: int):
        """One barrier reply; turns worker death into a clear ClusterError.

        A worker that raised sends ``("error", traceback)`` before closing
        its pipe; a worker *killed* (OOM, signal, os._exit) closes the pipe
        with nothing in it, which surfaces here as EOFError — translated
        into an error naming the shard and its exit code rather than
        leaving the coordinator blocked or the caller with a bare EOF.
        """
        try:
            reply = conn.recv()
        except EOFError:
            proc = procs[shard_index]
            proc.join(timeout=5)
            code = proc.exitcode
            raise ClusterError(
                f"shard {shard_index} died without reply "
                f"(exitcode {code}): worker killed or crashed before "
                "reaching its error handler"
            ) from None
        if reply[0] == "error":
            raise ClusterError(f"shard {shard_index} failed:\n{reply[1]}")
        return reply

    # -------------------------------------------------------------- report
    def _report(self, results, shard_stats, cross, window, total_windows,
                mark_window, wall_s) -> Dict[str, Any]:
        # Aggregate in sorted host order: float reductions are not
        # associative, and gather order depends on the shard layout.
        results = {name: results[name] for name in sorted(results)}
        clients = {n: r for n, r in results.items() if r["kind"] == "client"}
        servers = {n: r for n, r in results.items() if r["kind"] == "server"}
        events_total = sum(r["events_fired"] for r in results.values())
        ops_total = sum(c["ops_completed"] for c in clients.values())
        samples = sum(c["latency_us"]["samples"] for c in clients.values())
        mean_lat = (sum(c["latency_us"]["mean"] * c["latency_us"]["samples"]
                        for c in clients.values()) / samples) if samples else 0.0
        measure_ns = (total_windows - mark_window) * window
        simulated = {
            "horizon_ns": total_windows * window,
            "mark_ns": mark_window * window,
            "windows": total_windows,
            "lookahead_ns": window,
            "hosts": {name: results[name] for name in sorted(results)},
            "totals": {
                "events_fired": events_total,
                "ops_completed": ops_total,
                "ops_per_sec": ops_total * 1e9 / measure_ns if measure_ns else 0.0,
                "requests_served": sum(s["requests_served"] for s in servers.values()),
                "latency_mean_us": mean_lat,
                "latency_p99_max_us": max(
                    (c["latency_us"]["p99"] for c in clients.values()), default=0.0),
                "messages_emitted": sum(s["messages_emitted"] for s in shard_stats),
                "messages_delivered": sum(s["messages_delivered"] for s in shard_stats),
                "unroutable": sum(r["unroutable"] for r in results.values()),
            },
        }
        perf_shards = []
        for s, stats in enumerate(shard_stats):
            total = stats["run_wall_s"] + stats["barrier_wait_s"]
            perf_shards.append({
                "shard": s,
                "hosts": list(self.partitions[s]),
                "events_fired": stats["events_fired"],
                "run_wall_s": stats["run_wall_s"],
                "barrier_wait_s": stats["barrier_wait_s"],
                "barrier_wait_fraction":
                    stats["barrier_wait_s"] / total if total > 0 else 0.0,
                # the rate this shard sustains while actually advancing —
                # what it contributes when every shard has its own core
                "events_per_sec_wall":
                    stats["events_fired"] / stats["run_wall_s"]
                    if stats["run_wall_s"] > 0 else 0.0,
            })
        report = {
            "spec": asdict(self.spec),
            "n_shards": self.n_shards,
            "simulated": simulated,
            "perf": {
                "wall_seconds": wall_s,
                # realized end-to-end rate: total events over elapsed wall.
                # On a core-starved runner shards timeshare one CPU and
                # this cannot exceed the 1-shard rate; the aggregate below
                # is the layout's capacity when cores are available.
                "events_per_sec_wall": events_total / wall_s if wall_s > 0 else 0.0,
                "aggregate_events_per_sec":
                    sum(s["events_per_sec_wall"] for s in perf_shards),
                "barrier_rounds": total_windows,
                "messages_cross_shard": cross,
                "shards": perf_shards,
            },
        }
        if self.host_telemetry is not None and self.telemetry is not None:
            report["telemetry"] = build_rack_telemetry(
                config=asdict(self.telemetry),
                host_bundles=self.host_telemetry,
                host_order=self.spec.hosts,
                window_records=self._window_records,
                partitions=self.partitions,
                lookahead_ns=window,
            )
        return report


def run_rack_once(spec: RackSpec, n_shards: int, duration_ns: int,
                  warmup_ns: int = 0,
                  telemetry: Optional[RackTelemetry] = None) -> Dict[str, Any]:
    """Convenience wrapper: one sharded run of one spec."""
    return ShardedSimulator(spec, n_shards=n_shards,
                            telemetry=telemetry).run(duration_ns,
                                                     warmup_ns=warmup_ns)


def simulated_digest(report: Dict[str, Any]) -> str:
    """Canonical JSON of the layout-invariant block (byte-comparable)."""
    return json.dumps(report["simulated"], sort_keys=True, indent=1)
