"""Cross-run forensics: what changed between two flow runs.

``python -m repro flow diff A B`` answers the questions a regression
hunt starts with, straight from two ``flow-state.json`` documents:

* **what was recomputed** — tasks run B actually executed instead of
  resolving from cache.  A warm re-run diffed against its own cold run
  must report zero here (and zero digest changes) — that is the CI
  incremental-re-run proof, enforced by ``--assert-no-changes``;
* **what produced different outputs** — per-task ``output_digest``
  changes, plus cache-key changes (inputs moved) and status flips;
* **where the time went** — per-task wall deltas sorted by magnitude;
* **what the benchmarks say** — when both run directories persisted a
  bench report (``results/bench.pkl``), the deltas run through
  :func:`repro.obs.bench_compare.compare`, the function behind the
  flow's ``bench-compare`` gate, so the diff applies that gate's exact
  threshold and watchdog check with run A as the baseline.

Either side may be given as a state file, a run directory, or a state
root (the newest run directory wins) — the same paths CI already
uploads as artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.flow.graph import FlowError
from repro.flow.state import RunDirectory

__all__ = [
    "flow_diff",
    "format_flow_diff",
    "repo_root",
    "resolve_state_path",
]

#: Wall-delta entries smaller than this are scheduling noise, not signal.
_WALL_NOISE_S = 0.05

#: the checked-in bench report the flow's ``bench-compare`` gate compares
#: against, at the checkout root
BENCH_BASELINE = "BENCH_baseline.json"


def repo_root() -> Optional[Path]:
    """The checkout root (where :data:`BENCH_BASELINE` lives), if this is a
    src-layout checkout rather than an installed package."""
    import repro

    root = Path(repro.__file__).resolve().parents[2]
    if (root / BENCH_BASELINE).exists():
        return root
    return None


def resolve_state_path(spec: str) -> Path:
    """Resolve a user-given path to a concrete ``flow-state.json``.

    Accepts the state file itself, a run directory containing one, or a
    state root holding run directories (newest state file wins — the run
    the user most recently touched).
    """
    path = Path(spec)
    if path.is_file():
        return path
    if path.is_dir():
        direct = path / "flow-state.json"
        if direct.is_file():
            return direct
        candidates = sorted(
            path.glob("*/flow-state.json"), key=lambda p: p.stat().st_mtime
        )
        if candidates:
            return candidates[-1]
    raise FlowError(f"no flow-state.json at or under {spec!r}")


def _load_doc(path: Path) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise FlowError(f"cannot read flow state {path}: {exc}") from exc


def _load_bench_report(state_path: Path, run_key: str) -> Optional[Dict[str, Any]]:
    """The persisted bench-task result for a state file, if any.

    Checked next to the state file (a run directory) and then under
    ``<run_key>/`` (the root-level mirror copy points into its run dir).
    """
    candidates = [RunDirectory(state_path.parent.parent, state_path.parent.name)]
    if run_key:
        candidates.append(RunDirectory(state_path.parent, run_key))
    for run_dir in candidates:
        ok, value = run_dir.load_result("bench")
        if ok and isinstance(value, dict):
            return value
    return None


def _meta(doc: Mapping[str, Any], path: Path) -> Dict[str, Any]:
    return {
        "path": str(path),
        "run_key": doc.get("run_key", ""),
        "mode": doc.get("mode", ""),
        "schema": doc.get("schema"),
        "code_version": doc.get("code_version", ""),
        "last_run": dict(doc.get("last_run", {})),
    }


def flow_diff(path_a: str, path_b: str) -> Dict[str, Any]:
    """The full structural + performance diff between two flow runs."""
    a_path = resolve_state_path(path_a)
    b_path = resolve_state_path(path_b)
    a = _load_doc(a_path)
    b = _load_doc(b_path)
    tasks_a: Dict[str, Mapping[str, Any]] = a.get("tasks", {})
    tasks_b: Dict[str, Mapping[str, Any]] = b.get("tasks", {})
    shared = [name for name in tasks_a if name in tasks_b]

    recomputed_in_b = sorted(
        name for name, rec in tasks_b.items()
        if rec.get("status") in ("done", "failed") and not rec.get("cached")
    )
    digest_changed = [
        {"task": name, "a": tasks_a[name].get("digest", ""),
         "b": tasks_b[name].get("digest", "")}
        for name in shared
        if tasks_a[name].get("digest") and tasks_b[name].get("digest")
        and tasks_a[name]["digest"] != tasks_b[name]["digest"]
    ]
    key_changed = [
        {"task": name, "a": tasks_a[name].get("key", "")[:16],
         "b": tasks_b[name].get("key", "")[:16]}
        for name in shared
        if tasks_a[name].get("key") and tasks_b[name].get("key")
        and tasks_a[name]["key"] != tasks_b[name]["key"]
    ]
    status_changed = [
        {"task": name, "a": tasks_a[name].get("status", ""),
         "b": tasks_b[name].get("status", "")}
        for name in shared
        if tasks_a[name].get("status") != tasks_b[name].get("status")
    ]
    wall_delta = []
    for name in shared:
        wa = float(tasks_a[name].get("wall_s", 0.0))
        wb = float(tasks_b[name].get("wall_s", 0.0))
        if wa <= 0.0 and wb <= 0.0:
            continue
        delta = wb - wa
        if abs(delta) < _WALL_NOISE_S:
            continue
        wall_delta.append({
            "task": name,
            "a_s": wa,
            "b_s": wb,
            "delta_s": delta,
            "pct": (delta / wa * 100.0) if wa > 0 else 0.0,
        })
    wall_delta.sort(key=lambda e: -abs(e["delta_s"]))

    bench: Dict[str, Any] = {"available": False}
    bench_a = _load_bench_report(a_path, a.get("run_key", ""))
    bench_b = _load_bench_report(b_path, b.get("run_key", ""))
    if bench_a is None or bench_b is None:
        bench["reason"] = "bench report missing from one or both runs"
    else:
        from repro.obs.bench_compare import compare

        lines, regressions = compare(bench_a, bench_b)
        bench = {"available": True, "lines": lines, "regressions": regressions}

    total_a = sum(float(r.get("wall_s", 0.0)) for r in tasks_a.values())
    total_b = sum(float(r.get("wall_s", 0.0)) for r in tasks_b.values())
    return {
        "a": _meta(a, a_path),
        "b": _meta(b, b_path),
        "only_in_a": sorted(set(tasks_a) - set(tasks_b)),
        "only_in_b": sorted(set(tasks_b) - set(tasks_a)),
        "recomputed_in_b": recomputed_in_b,
        "digest_changed": digest_changed,
        "key_changed": key_changed,
        "status_changed": status_changed,
        "wall_delta": wall_delta,
        "total_wall": {"a_s": total_a, "b_s": total_b, "delta_s": total_b - total_a},
        "bench": bench,
        #: the --assert-no-changes predicate: nothing recomputed, no output moved
        "clean": not recomputed_in_b and not digest_changed,
    }


def format_flow_diff(diff: Mapping[str, Any]) -> str:
    """Human-readable rendering of :func:`flow_diff` output."""
    lines: List[str] = []
    for side in ("a", "b"):
        meta = diff[side]
        lines.append(
            f"{side.upper()}: run {meta['run_key']} (mode={meta['mode']}, "
            f"code={meta['code_version']}) — {meta['path']}"
        )
    if diff["only_in_a"]:
        lines.append(f"  only in A: {', '.join(diff['only_in_a'])}")
    if diff["only_in_b"]:
        lines.append(f"  only in B: {', '.join(diff['only_in_b'])}")
    if diff["recomputed_in_b"]:
        lines.append(
            f"  recomputed in B ({len(diff['recomputed_in_b'])}): "
            + ", ".join(diff["recomputed_in_b"])
        )
    else:
        lines.append("  recomputed in B: none (fully cache-resolved)")
    if diff["digest_changed"]:
        lines.append(f"  output digests changed ({len(diff['digest_changed'])}):")
        for entry in diff["digest_changed"]:
            lines.append(f"    {entry['task']:<24} {entry['a']} -> {entry['b']}")
    else:
        lines.append("  output digests: identical")
    if diff["key_changed"]:
        lines.append(f"  cache keys changed ({len(diff['key_changed'])}):")
        for entry in diff["key_changed"]:
            lines.append(f"    {entry['task']:<24} {entry['a']}… -> {entry['b']}…")
    for entry in diff["status_changed"]:
        lines.append(f"  status: {entry['task']} {entry['a']} -> {entry['b']}")
    if diff["wall_delta"]:
        lines.append("  wall deltas (>|{:.0f}| ms):".format(_WALL_NOISE_S * 1000))
        for entry in diff["wall_delta"][:10]:
            lines.append(
                f"    {entry['task']:<24} {entry['a_s']:8.2f}s -> {entry['b_s']:8.2f}s "
                f"({entry['delta_s']:+.2f}s, {entry['pct']:+.1f}%)"
            )
    total = diff["total_wall"]
    lines.append(
        f"  total recorded wall: {total['a_s']:.2f}s -> {total['b_s']:.2f}s "
        f"({total['delta_s']:+.2f}s)"
    )
    bench = diff["bench"]
    if bench.get("available"):
        lines.append("  bench metric deltas (A = baseline):")
        for line in bench["lines"]:
            lines.append(f"    {line}")
        if bench["regressions"]:
            lines.append(f"  bench regressions ({len(bench['regressions'])}):")
            for reg in bench["regressions"]:
                lines.append(f"    {reg}")
    else:
        lines.append(f"  bench comparison unavailable: {bench.get('reason', '?')}")
    lines.append("  verdict: " + ("CLEAN (B is a pure cache replay of A)"
                                  if diff["clean"] else "CHANGED"))
    return "\n".join(lines) + "\n"
