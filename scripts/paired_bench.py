#!/usr/bin/env python
"""Paired benchmark runs: a change against a base revision on one host.

    python scripts/paired_bench.py --base REV [--workload W ...] [--seed N] [--pairs N]

Exports REV (``git archive``) and the working tree (tracked and untracked,
ignored files left out) to two fresh sibling directories, then runs the
benchmark command of ``BENCHMARK.json`` (``perfbench/run.py --trace 0``,
for its ``run_seconds``) in each, pair after pair, alternating which
side runs first.  It prints one row per workload and end-to-end metric
of ``BENCHMARK.json``: the base and change medians, the change in %, the
base's spread (quartile distance over median), the pairs the change
won, whether the simulated digests were equal in every pair, and a
verdict:

* ``improved``: the change won at least 9 in 10 pairs (ties count for
  neither side) and its median beats the base's by more than the base's
  quartile distance;
* ``worse``: the change's median is worse than the base's by more than
  the metric's ``bound``;
* ``unresolved``: neither, and the base's spread is wider than the bound,
  unless every change run reads better than every base run;
* ``unchanged``: otherwise.

When a workload's ``sim_ms_per_s`` row is ``worse`` or ``unresolved``,
each side runs once more with ``--trace 1`` (same seed and
``run_seconds``), and under the table a second table lists every layer's
``share`` of ``BENCHMARK.json``'s per-layer metrics for base and change
and their difference, largest move first: the regression names the
layer it came from.  The layer tracer times only the run loop, never
set-up, so no other row can be explained that way.

A run that fails an output check or reports failed operations is listed
under the tables.  Exit status: 1 if any row is ``worse`` or any run
failed a check, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------------ parsing
@dataclass
class Run:
    """What one benchmark run printed."""

    digest: str
    metrics: Dict[str, float]
    correct: bool
    attempted: int
    failed: int


def parse_run(stdout: str) -> Run:
    """Read the digest line and the final JSON result line of one run."""
    digest = ""
    for line in stdout.splitlines():
        if line.startswith("digest "):
            digest = line.split()[1]
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
    return Run(digest, metrics, bool(result["correct"]), int(result["attempted"]),
               int(result["failed"]))


# --------------------------------------------------------------- statistics
def spread(values: Sequence[float]) -> float:
    """Quartile distance (``statistics.quantiles``) of ``values``; 0 for
    fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


@dataclass
class Row:
    """One workload x metric line of the table."""

    workload: str
    metric: str
    unit: str
    base: float
    change: float
    change_pct: float
    base_spread_pct: float
    won: int
    pairs: int
    digests_equal: bool
    verdict: str


def _better(better: str, a: float, b: float) -> bool:
    """True when ``a`` reads better than ``b``."""
    return a > b if better == "higher" else a < b


def wins(better: str, base: Sequence[float], change: Sequence[float]) -> int:
    """Pairs in which the change read better; ties count for neither."""
    return sum(_better(better, c, b) for b, c in zip(base, change))


def verdict(better: str, bound: float, base: Sequence[float],
            change: Sequence[float]) -> str:
    """``improved``, ``worse``, ``unresolved`` or ``unchanged`` for the
    paired values of one metric (``base[i]`` ran beside ``change[i]``)."""
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    if wins(better, base, change) * 10 >= 9 * len(base) \
            and _better(better, change_med, base_med) \
            and abs(change_med - base_med) > spread(base):
        return "improved"
    if base_med != 0:
        moved = (change_med - base_med) / abs(base_med)
        if (moved < -bound) if better == "higher" else (moved > bound):
            return "worse"
    if base_med != 0 and spread(base) / abs(base_med) > bound:
        worst_change = min(change) if better == "higher" else max(change)
        best_base = max(base) if better == "higher" else min(base)
        if not _better(better, worst_change, best_base):
            return "unresolved"
    return "unchanged"


def table_rows(workload: str, end_to_end: Sequence[dict], base: Sequence[Run],
               change: Sequence[Run]) -> List[Row]:
    """The rows of one workload, in ``BENCHMARK.json``'s metric order."""
    digests_equal = all(b.digest == c.digest for b, c in zip(base, change))
    rows = []
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        b = [run.metrics[name] for run in base]
        c = [run.metrics[name] for run in change]
        base_med, change_med = statistics.median(b), statistics.median(c)
        rows.append(Row(
            workload=workload, metric=name, unit=spec["unit"], base=base_med,
            change=change_med,
            change_pct=(change_med - base_med) / abs(base_med) * 100 if base_med else 0.0,
            base_spread_pct=spread(b) / abs(base_med) * 100 if base_med else 0.0,
            won=wins(better, b, c), pairs=len(b),
            digests_equal=digests_equal, verdict=verdict(better, spec["bound"], b, c),
        ))
    return rows


def format_table(rows: Sequence[Row]) -> List[str]:
    """The rows as a Markdown table."""
    lines = ["| workload | metric | base | change | change % | base IQR/median "
             "| change won | digests equal | verdict |",
             "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(
            f"| `{r.workload}` | `{r.metric}` ({r.unit}) | {r.base:.6g} | {r.change:.6g} "
            f"| {r.change_pct:+.1f}% | {r.base_spread_pct:.1f}% | {r.won}/{r.pairs} "
            f"| {'yes' if r.digests_equal else 'NO'} | {r.verdict} |"
        )
    return lines


#: the one end-to-end metric the layer tracer can explain: it times the
#: run loop, which is what ``sim_ms_per_s`` measures
TRACED_METRIC = "sim_ms_per_s"


def needs_trace(rows: Sequence[Row]) -> List[str]:
    """The workloads, in table order, whose :data:`TRACED_METRIC` row is
    ``worse`` or ``unresolved``."""
    return [r.workload for r in rows
            if r.metric == TRACED_METRIC and r.verdict in ("worse", "unresolved")]


def share_moves(per_layer: Sequence[dict], base: Run,
                change: Run) -> List[Tuple[str, float, float]]:
    """``(layer, base share, change share)`` for every ``<layer>.share``
    metric of ``per_layer``, the largest move first (ties by layer)."""
    moves = []
    for spec in per_layer:
        name = spec["name"]
        if name.endswith(".share") and name in base.metrics and name in change.metrics:
            moves.append((name[:-len(".share")], base.metrics[name], change.metrics[name]))
    return sorted(moves, key=lambda m: (-abs(m[2] - m[1]), m[0]))


def format_share_moves(workload: str, moves: Sequence[Tuple[str, float, float]]) -> List[str]:
    """The layer shares of one workload's traced pair as a Markdown table."""
    lines = [f"layer shares of `{workload}` under --trace 1 (one run per side, "
             "largest move first):",
             "| layer | base share | change share | move |",
             "|---|---|---|---|"]
    for layer, base, change in moves:
        lines.append(f"| `{layer}` | {base * 100:.1f}% | {change * 100:.1f}% "
                     f"| {(change - base) * 100:+.1f} pts |")
    return lines


# ------------------------------------------------------------------ running
def export_base(rev: str, dest: str) -> None:
    """``git archive REV`` unpacked into ``dest``."""
    archive = os.path.join(os.path.dirname(dest), "base.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        # The "data" filter (where the interpreter has it) refuses links
        # and paths that would land outside ``dest``.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    os.remove(archive)


def export_working_tree(dest: str) -> None:
    """Copy every tracked and untracked, not ignored, file of the checkout."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted in the work tree is gone
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(command: Sequence[str], cwd: str, workload: str, seed: int,
             seconds: float, trace: int = 0) -> Run:
    """One benchmark run: every observer off, or under the layer tracer."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode} in {cwd}")
    return parse_run(done.stdout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="the revision to compare the working tree against")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="paired-bench-")
    sides = {"base": os.path.join(scratch, "base"), "change": os.path.join(scratch, "change")}
    rows: List[Row] = []
    problems: List[str] = []
    explained: List[str] = []

    def run_checked(side: str, workload: str, what: str, trace: int = 0) -> Run:
        run = run_once(spec["command"], sides[side], workload, args.seed,
                       spec["run_seconds"], trace)
        if not run.correct or run.failed:
            problems.append(f"{workload} {what} {side}: correct={run.correct}, "
                            f"failed {run.failed}/{run.attempted}")
        return run

    try:
        export_base(args.base, sides["base"])
        export_working_tree(sides["change"])
        for workload in args.workload or workloads:
            runs: Dict[str, List[Run]] = {"base": [], "change": []}
            for i in range(args.pairs):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    runs[side].append(run_checked(side, workload, f"pair {i + 1}"))
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            rows.extend(table_rows(workload, spec["end_to_end"], runs["base"], runs["change"]))
        for workload in needs_trace(rows):
            traced = {side: run_checked(side, workload, "--trace 1", trace=1)
                      for side in ("base", "change")}
            print(f"{workload} traced pair done", file=sys.stderr)
            explained += ["", *format_share_moves(
                workload, share_moves(spec["per_layer"], traced["base"], traced["change"]))]
    finally:
        shutil.rmtree(scratch)

    print(f"base {args.base} against the working tree: {args.pairs} pairs per workload, "
          f"seed {args.seed}, --seconds {spec['run_seconds']:g}")
    for line in format_table(rows) + explained:
        print(line)
    for problem in problems:
        print(f"FAILED CHECK {problem}")
    return 1 if problems or any(r.verdict == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
