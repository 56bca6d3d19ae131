"""Critical-path and resource analysis of one flow run's state file.

:func:`flow_report` consumes a schema-v2 ``flow-state.json`` document
(:mod:`repro.flow.state`) — the records carry their own dependency edges,
walls, CPU/RSS accounting, queue waits, and execution stamps — and
answers the questions a bare per-task wall list cannot:

* **critical path** — the dependency chain whose recorded walls sum
  highest; its length bounds how fast any number of workers could finish
  the run;
* **makespan** — the measure of the *union* of execution intervals (time
  during which at least one task was executing).  Defined this way the
  arithmetic invariants hold unconditionally::

      critical_path_wall  <=  makespan  <=  total_work
      total_work == sum of per-task walls

  (critical-path tasks execute on disjoint intervals because each waits
  for its predecessor, and a union is never longer than the sum of its
  parts);
* **parallel efficiency** — total work / makespan, i.e. the mean
  concurrency while the run was busy, plus the full concurrency profile
  (seconds spent at each concurrency level) and the peak;
* **per-phase attribution** — work and task counts grouped by task kind
  (calibrate / point / sweep / render / report);
* **cache and queue behaviour** — executed vs cached counts, cumulative
  hit counts, and the total ready→start queue wait.

Everything is computed from the state document alone, so the report works
on CI artifacts and archived run directories without a live graph.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

__all__ = ["critical_path", "flow_report", "format_flow_report"]


def _records(state: Mapping[str, Any]) -> Dict[str, Mapping[str, Any]]:
    """The per-task record mapping of a state document (or FlowState dict)."""
    tasks = state.get("tasks", {})
    return {name: rec for name, rec in tasks.items()}


def _toposort(records: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """Kahn's algorithm over the recorded dependency edges.

    Edges pointing at tasks absent from the state (e.g. a ``--only``
    subset run) are ignored rather than fatal — the report describes what
    the state knows about.
    """
    names = list(records)
    present = set(names)
    indegree = {
        name: sum(1 for d in records[name].get("deps", ()) if d in present)
        for name in names
    }
    ready = [name for name in names if indegree[name] == 0]
    order: List[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for cand in names:
            if name in records[cand].get("deps", ()):
                indegree[cand] -= 1
                if indegree[cand] == 0:
                    ready.append(cand)
    # A cycle cannot be produced by the runner; degrade to partial order.
    return order


def critical_path(records: Mapping[str, Mapping[str, Any]]) -> Tuple[List[str], float]:
    """``(task chain, total wall seconds)`` of the longest dependency chain.

    Longest-path dynamic programming over the recorded walls in
    topological order; ties break toward the earlier task in state order
    (deterministic for a deterministic state file).
    """
    order = _toposort(records)
    best: Dict[str, float] = {}
    prev: Dict[str, Any] = {}
    for name in order:
        rec = records[name]
        best_dep, best_wall = None, 0.0
        for dep in rec.get("deps", ()):
            if dep in best and best[dep] > best_wall:
                best_dep, best_wall = dep, best[dep]
        best[name] = float(rec.get("wall_s", 0.0)) + best_wall
        prev[name] = best_dep
    if not best:
        return [], 0.0
    tail = max(best, key=lambda n: (best[n], n))
    chain: List[str] = []
    cursor: Any = tail
    while cursor is not None:
        chain.append(cursor)
        cursor = prev[cursor]
    chain.reverse()
    return chain, best[tail]


def _intervals(records: Mapping[str, Mapping[str, Any]]) -> List[Tuple[float, float]]:
    """Per-task execution intervals ``(start, start + wall)``.

    Built from the worker-reported start stamp plus the monotonic wall, so
    each interval's length is exactly the recorded wall.  Stamps are
    rebased to the earliest start first: unix-epoch doubles only resolve
    to ~half a microsecond, so doing the interval arithmetic at epoch
    magnitude would inject noise bigger than the invariants' tolerance.
    """
    raw = []
    for rec in records.values():
        start = float(rec.get("started_unix", 0.0))
        wall = float(rec.get("wall_s", 0.0))
        if start > 0.0 and wall > 0.0 and rec.get("finished_unix", 0.0) > 0.0:
            raw.append((start, wall))
    if not raw:
        return []
    base = min(start for start, _ in raw)
    return sorted((start - base, (start - base) + wall) for start, wall in raw)


def _concurrency_profile(
    intervals: List[Tuple[float, float]],
) -> Tuple[Dict[int, float], int, float]:
    """``(seconds at each concurrency level >= 1, peak, busy makespan)``.

    Sweep line over interval endpoints; the busy makespan is the measure
    of the union (the total of every level's seconds).
    """
    if not intervals:
        return {}, 0, 0.0
    events: List[Tuple[float, int]] = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    events.sort()
    profile: Dict[int, float] = {}
    level = 0
    peak = 0
    last_t = events[0][0]
    for t, delta in events:
        if t > last_t and level > 0:
            profile[level] = profile.get(level, 0.0) + (t - last_t)
        level += delta
        peak = max(peak, level)
        last_t = t
    makespan = sum(profile.values())
    return profile, peak, makespan


def flow_report(state: Mapping[str, Any]) -> Dict[str, Any]:
    """The full observability report for one flow state document."""
    records = _records(state)
    chain, cp_wall = critical_path(records)
    intervals = _intervals(records)
    profile, peak, makespan = _concurrency_profile(intervals)
    total_work = sum(float(r.get("wall_s", 0.0)) for r in records.values())
    span = 0.0
    if intervals:
        span = max(end for _, end in intervals) - min(start for start, _ in intervals)

    phases: Dict[str, Dict[str, Any]] = {}
    for name, rec in records.items():
        kind = rec.get("kind", "task")
        bucket = phases.setdefault(
            kind, {"tasks": 0, "wall_s": 0.0, "cpu_s": 0.0, "queue_wait_s": 0.0}
        )
        bucket["tasks"] += 1
        bucket["wall_s"] += float(rec.get("wall_s", 0.0))
        bucket["cpu_s"] += float(rec.get("cpu_user_s", 0.0)) + float(
            rec.get("cpu_sys_s", 0.0)
        )
        bucket["queue_wait_s"] += float(rec.get("queue_wait_s", 0.0))
    for bucket in phases.values():
        bucket["share"] = bucket["wall_s"] / total_work if total_work else 0.0

    statuses: Dict[str, int] = {}
    for rec in records.values():
        status = rec.get("status", "pending")
        statuses[status] = statuses.get(status, 0) + 1

    return {
        "run_key": state.get("run_key", ""),
        "mode": state.get("mode", ""),
        "schema": state.get("schema"),
        "code_version": state.get("code_version", ""),
        "tasks": len(records),
        "statuses": statuses,
        "last_run": dict(state.get("last_run", {})),
        "total_work_s": total_work,
        "makespan_s": makespan,
        "span_s": span,
        "parallel_efficiency": (total_work / makespan) if makespan else 0.0,
        "critical_path": {
            "tasks": chain,
            "wall_s": cp_wall,
            "share_of_makespan": (cp_wall / makespan) if makespan else 0.0,
            "walls": {name: float(records[name].get("wall_s", 0.0)) for name in chain},
        },
        "concurrency": {
            "profile": {str(level): secs for level, secs in sorted(profile.items())},
            "peak": peak,
            "mean": (total_work / makespan) if makespan else 0.0,
        },
        "phases": phases,
        "cache": {
            "executed": sum(
                1 for r in records.values()
                if r.get("status") == "done" and not r.get("cached")
            ),
            "cached": sum(1 for r in records.values() if r.get("cached")),
            "total_hits": sum(int(r.get("hit_count", 0)) for r in records.values()),
        },
        "queue_wait_s": sum(float(r.get("queue_wait_s", 0.0)) for r in records.values()),
        "cpu_s": sum(
            float(r.get("cpu_user_s", 0.0)) + float(r.get("cpu_sys_s", 0.0))
            for r in records.values()
        ),
        "peak_rss_kb": max(
            (int(r.get("peak_rss_kb", 0)) for r in records.values()), default=0
        ),
    }


def format_flow_report(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of :func:`flow_report` output."""
    lines: List[str] = []
    statuses = ", ".join(
        f"{count} {status}" for status, count in sorted(report["statuses"].items())
    )
    lines.append(
        f"flow run {report['run_key']} (mode={report['mode']}, "
        f"schema v{report['schema']}): {report['tasks']} tasks — {statuses}"
    )
    cache = report["cache"]
    lines.append(
        f"  cache: {cache['executed']} executed, {cache['cached']} cached "
        f"({cache['total_hits']} cumulative hits)"
    )
    lines.append(
        f"  total work {report['total_work_s']:.2f}s, "
        f"busy makespan {report['makespan_s']:.2f}s, span {report['span_s']:.2f}s "
        f"-> parallel efficiency {report['parallel_efficiency']:.2f}x"
    )
    lines.append(
        f"  cpu {report['cpu_s']:.2f}s, queue wait {report['queue_wait_s']:.3f}s, "
        f"peak task RSS delta {report['peak_rss_kb']} kB"
    )
    cp = report["critical_path"]
    lines.append(
        f"  critical path {cp['wall_s']:.2f}s "
        f"({cp['share_of_makespan'] * 100:.0f}% of makespan), {len(cp['tasks'])} tasks:"
    )
    for name in cp["tasks"]:
        lines.append(f"    {name:<24} {cp['walls'][name]:8.2f}s")
    conc = report["concurrency"]
    if conc["profile"]:
        profile = ", ".join(
            f"{secs:.2f}s @{level}" for level, secs in conc["profile"].items()
        )
        lines.append(f"  concurrency: peak {conc['peak']}, mean {conc['mean']:.2f} ({profile})")
    lines.append("  phases:")
    for kind, bucket in sorted(report["phases"].items(), key=lambda kv: -kv[1]["wall_s"]):
        lines.append(
            f"    {kind:<10} {bucket['tasks']:3d} tasks  "
            f"{bucket['wall_s']:8.2f}s wall ({bucket['share'] * 100:4.1f}%)  "
            f"{bucket['cpu_s']:8.2f}s cpu"
        )
    return "\n".join(lines) + "\n"
