"""Diff two bench reports and gate on regressions of the simulated system.

Compares every throughput point (Gbps, lower is worse) and every ping
latency point (p99 ms, higher is worse) shared by the two reports and
flags any metric that regresses by more than :data:`MAX_REGRESSION_PCT`
either way, plus any watchdog violation in the current report.  Metrics
present in only one report are listed but never gate — schema growth
must not break the trajectory.  The flow's ``bench-compare`` task (the
gate, against ``BENCH_baseline.json``) and ``repro flow diff`` both call
:func:`compare`, so the threshold and metric selection live only here.
Every compared metric is simulated; simulator speed is gated by
``perfbench/``, not here.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Tuple

#: the one gate threshold, in percent, for every metric in either direction
MAX_REGRESSION_PCT = 10.0


def load_report(path: str) -> Dict[str, Any]:
    """Load one bench report, checking the schema name."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    schema = report.get("schema", {})
    if schema.get("name") != "repro-bench":
        raise ValueError(f"{path}: not a repro-bench report (schema={schema!r})")
    return report


def _metrics(report: Dict[str, Any]) -> Iterator[Tuple[str, str, float]]:
    """Yield ``(metric_id, direction, value)``; direction 'higher'/'lower'
    is the *good* way for the value to move."""
    for name, point in report.get("throughput", {}).items():
        yield f"throughput[{name}].gbps", "higher", float(point["throughput_gbps"])
    hybrid = report.get("hybrid", {})
    for label in ("baseline", "quota8"):
        if label in hybrid:
            yield f"hybrid[{label}].gbps", "higher", float(hybrid[label]["throughput_gbps"])
    for name, point in report.get("latency_ms", {}).items():
        yield f"latency[{name}].p99_ms", "lower", float(point["p99_ms"])
    # Schema v3: steady-state exit rate reaggregated from warm-up-excluded
    # timeline windows — gates on the windowed shape, not just the aggregate.
    for name, point in report.get("throughput", {}).items():
        steady = point.get("timeline", {}).get("steady_state")
        if steady and "exits_per_sec_total" in steady:
            yield (f"steady[{name}].exits_per_sec", "lower",
                   float(steady["exits_per_sec_total"]))
    # Schema v4: scheduler-zoo ping points (full ES2 per host policy, plus
    # one adaptive-allocation point).  New metrics list-but-don't-gate
    # against older baselines automatically.
    sched = report.get("sched", {})
    for policy, point in sched.get("policies", {}).items():
        yield f"sched[{policy}].p99_ms", "lower", float(point["p99_ms"])
    adaptive = sched.get("adaptive")
    if adaptive:
        yield "sched[adaptive].p99_ms", "lower", float(adaptive["p99_ms"])


def compare(
    baseline: Dict[str, Any], current: Dict[str, Any],
) -> Tuple[List[str], List[str]]:
    """Return ``(table_lines, regressions)`` for the two reports."""
    base = {mid: (d, v) for mid, d, v in _metrics(baseline)}
    cur = {mid: (d, v) for mid, d, v in _metrics(current)}
    lines: List[str] = []
    regressions: List[str] = []
    width = max((len(m) for m in set(base) | set(cur)), default=10)
    lines.append(f"{'metric':<{width}} {'baseline':>12} {'current':>12} {'delta':>9}")
    for mid in sorted(set(base) | set(cur)):
        if mid not in base:
            lines.append(f"{mid:<{width}} {'-':>12} {cur[mid][1]:>12.4f}   (new; not gated)")
            continue
        if mid not in cur:
            lines.append(f"{mid:<{width}} {base[mid][1]:>12.4f} {'-':>12}   (gone; not gated)")
            continue
        direction, bval = base[mid]
        cval = cur[mid][1]
        if bval == 0:
            delta_pct = 0.0 if cval == 0 else float("inf")
        else:
            delta_pct = (cval - bval) / bval * 100.0
        bad = (direction == "higher" and delta_pct < -MAX_REGRESSION_PCT) or (
            direction == "lower" and delta_pct > MAX_REGRESSION_PCT
        )
        flag = "  REGRESSION" if bad else ""
        lines.append(f"{mid:<{width}} {bval:>12.4f} {cval:>12.4f} {delta_pct:>+8.1f}%{flag}")
        if bad:
            regressions.append(
                f"{mid}: {bval:.4f} -> {cval:.4f} ({delta_pct:+.1f}%, limit {MAX_REGRESSION_PCT:.0f}%)"
            )
    violations = current.get("watchdog_violations", 0)
    if violations:
        regressions.append(
            f"watchdog_violations: {violations} conservation-law violation(s) "
            "in the current report (expected 0)"
        )
    return lines, regressions

