"""Walk the experiment DAG: schedule, execute, persist, resume.

The runner turns a :class:`~repro.flow.graph.TaskGraph` into work:

* **ready-set scheduling** — tasks whose dependencies are all done are
  submitted in topological order to a process pool (the repo's only
  fan-out: every sweep point is a task); everything else waits.
  ``jobs=1`` runs serially in-process, which also lifts the
  picklability requirement — handy for tests.
* **incremental re-run** — before executing a task the runner computes
  its :func:`~repro.flow.state.task_key` (declaration × code version ×
  upstream output digests) and compares it to the persisted record; a
  match whose result pickle still loads is a cache hit and costs nothing.
* **fault isolation** — a failed task marks its transitive dependents
  ``skipped`` and the rest of the DAG keeps running; the invocation
  summary lists every failed/skipped stage and the caller exits nonzero.
* **crash safety** — ``flow-state.json`` is rewritten atomically after
  every task transition, so an interrupted invocation resumes from the
  last completed task, not from zero.
* **one runner per run directory** — :meth:`FlowRunner.run` holds an
  exclusive ``flock`` on ``flow.lock``; a second runner fails at once
  instead of interleaving state and result writes.
"""

from __future__ import annotations

import fcntl
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.flow.graph import FlowError, TaskGraph
from repro.flow.state import (
    FlowState,
    RunDirectory,
    flow_root,
    output_digest,
    run_key_for,
    task_key,
    write_atomic,
)
from repro.parallel.sweep import effective_jobs, pool_context

__all__ = ["FlowResult", "FlowRunner"]


def _execute_task(name, fn, kwargs, dep_results):
    """Worker-side shim: run one task, never raise across the pool.

    Returns ``(name, status, value, digest, wall, error, resources)``: the
    result's :func:`~repro.flow.state.output_digest` is computed here, not
    on the scheduler between dispatches, and ``resources`` is the
    schema-v2 accounting block measured *inside* the executing process:
    getrusage CPU user/system deltas, peak-RSS growth, the worker id, and
    the wall-clock start stamp (the parent turns the start stamp into
    ready→start queue wait).
    """
    import traceback

    from repro.parallel.rusage import snapshot, usage_delta, worker_id

    started_unix = time.time()
    before = snapshot()
    t0 = time.monotonic()
    try:
        value = fn(dep_results, **kwargs)
        digest = output_digest(value)
        status, error = "ok", ""
    except BaseException:
        value, digest, status, error = None, "", "err", traceback.format_exc()
    wall = time.monotonic() - t0
    resources = usage_delta(before, snapshot())
    resources["worker"] = worker_id()
    resources["started_unix"] = started_unix
    return name, status, value, digest, wall, error, resources


@dataclass
class FlowResult:
    """What one runner invocation did, for callers and ``flow-state.json``."""

    order: List[str]
    executed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    failed: Dict[str, str] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    #: tasks whose execution wall exceeded their declared budget_s,
    #: mapped to the overrun in seconds (reported, never fatal).
    over_budget: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    state_path: str = ""

    @property
    def ok(self) -> bool:
        return not self.failed and not self.skipped

    def summary_lines(self) -> List[str]:
        """Human-readable invocation summary (printed after every run)."""
        lines = [
            f"flow: {len(self.order)} tasks — {len(self.executed)} executed, "
            f"{len(self.cached)} cached, {len(self.failed)} failed, "
            f"{len(self.skipped)} skipped in {self.wall_s:.1f}s"
        ]
        for name, error in self.failed.items():
            reason = error.strip().splitlines()[-1] if error.strip() else "failed"
            lines.append(f"  FAILED  {name}: {reason}")
        for name, reason in self.skipped.items():
            lines.append(f"  skipped {name}: {reason}")
        for name, over in self.over_budget.items():
            lines.append(f"  BUDGET  {name}: over wall budget by {over:.1f}s")
        return lines


class FlowRunner:
    """Execute a task graph with resumable per-task state."""

    def __init__(
        self,
        graph: TaskGraph,
        mode: str = "full",
        state_root=None,
        jobs: Optional[int] = None,
        echo: Optional[Callable[[str], None]] = print,
    ):
        graph.validate()
        self.graph = graph
        self.mode = mode
        self.jobs = jobs
        self.echo = echo or (lambda line: None)
        self.root = flow_root() if state_root is None else Path(state_root)
        self.run_key = run_key_for(graph.tasks, mode)
        self.run_dir = RunDirectory(self.root, self.run_key)

    # -- planning ---------------------------------------------------------

    def _load_state(self, force: bool) -> FlowState:
        state = None if force else FlowState.load(self.run_dir.state_path)
        if state is None or state.run_key != self.run_key:
            state = FlowState(run_key=self.run_key, mode=self.mode)
        return state

    def _select(self, only: Optional[Sequence[str]]) -> List[str]:
        if only:
            return self.graph.closure(list(only))
        return self.graph.topological_order()

    def plan(self, only: Optional[Sequence[str]] = None, force: bool = False) -> List[dict]:
        """Dry-run classification: what would execute, what would resolve
        from cache.  A task downstream of anything that would execute is
        itself ``run`` (its input digests are unknowable until then).  A
        hit needs the same checksummed load :meth:`run` needs, so a
        damaged result plans as ``run``."""
        state = self._load_state(force)
        order = self._select(only)
        actions: List[dict] = []
        dep_digests: Dict[str, str] = {}
        would_run: set = set()
        for name in order:
            task = self.graph[name]
            action = "run"
            if not any(dep in would_run for dep in task.deps):
                record = state.tasks.get(name)
                key = task_key(task, dep_digests)
                if (
                    record is not None
                    and record.status == "done"
                    and record.key == key
                    and self.run_dir.load_result(name)[0]
                ):
                    action = "cached"
                    dep_digests[name] = record.digest
            if action == "run":
                would_run.add(name)
            actions.append({"task": name, "kind": task.kind, "action": action,
                            "deps": list(task.deps)})
        return actions

    # -- execution --------------------------------------------------------

    def run(
        self,
        only: Optional[Sequence[str]] = None,
        force: bool = False,
    ) -> FlowResult:
        """Run the (sub)graph; returns a :class:`FlowResult`.

        Never raises for task failures — those are recorded, their
        dependents skipped, and the summary reflects them; the caller
        decides the exit code.  Raises :class:`FlowError` at once if
        another runner holds this run directory.
        """
        self.run_dir.path.mkdir(parents=True, exist_ok=True)
        with open(self.run_dir.path / "flow.lock", "w") as lock:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise FlowError(f"another flow run holds {self.run_dir.path}") from None
            try:
                return self._run(only, force)
            finally:
                # Forked workers hold copies of the descriptor: unlock
                # explicitly so they cannot keep the lock alive.
                fcntl.flock(lock, fcntl.LOCK_UN)

    def _run(self, only: Optional[Sequence[str]], force: bool) -> FlowResult:
        t0 = time.monotonic()
        state = self._load_state(force)
        order = self._select(only)
        result = FlowResult(order=order, state_path=str(self.run_dir.state_path))
        total = len(order)

        state.last_run = {"started": time.time(), "mode": self.mode, "selected": total}
        self._save(state, result)

        digests: Dict[str, str] = {}  #: output digests of completed tasks
        completed: set = set()
        dead: Dict[str, str] = {}  #: failed/skipped name -> reason
        pending = list(order)
        running: Dict[Any, str] = {}
        #: wall-clock stamp of the moment each task's last dependency
        #: completed — the start of its queue wait.
        ready_at: Dict[str, float] = {}
        n_jobs = min(effective_jobs(self.jobs), max(1, total))
        state.last_run["jobs"] = n_jobs
        pool = (
            ProcessPoolExecutor(max_workers=n_jobs, mp_context=pool_context())
            if n_jobs > 1
            else None
        )
        step = 0

        def launch_ready():
            nonlocal step
            for name in list(pending):
                task = self.graph[name]
                if any(dep in dead for dep in task.deps):
                    pending.remove(name)
                    root_cause = next(dep for dep in task.deps if dep in dead)
                    reason = f"upstream {root_cause!r} did not complete"
                    dead[name] = reason
                    record = state.record(name)
                    record.status, record.error, record.kind = "skipped", reason, task.kind
                    record.cached = False
                    record.deps = list(task.deps)
                    record.reset_resources()
                    result.skipped[name] = reason
                    step += 1
                    self.echo(f"[{step:>3}/{total}] {name:<22} skipped ({reason})")
                    self._save(state, result)
                    continue
                if not all(dep in completed for dep in task.deps):
                    continue
                pending.remove(name)
                ready_at.setdefault(name, time.time())
                key = task_key(task, digests)
                record = state.record(name)
                record.kind = task.kind
                record.deps = list(task.deps)
                record.budget_s = float(task.budget_s or 0.0)
                if (
                    not force
                    and record.status == "done"
                    and record.key == key
                ):
                    ok, value = self.run_dir.load_result(name)
                    if ok:
                        # Cache-hit provenance: the resource fields keep
                        # describing the execution that produced the value;
                        # only the hit bookkeeping changes.
                        record.cached = True
                        record.source = "cache"
                        record.hit_count += 1
                        completed.add(name)
                        digests[name] = record.digest
                        result.cached.append(name)
                        result.results[name] = value
                        step += 1
                        self.echo(f"[{step:>3}/{total}] {name:<22} cached")
                        continue
                dep_results = {dep: result.results[dep] for dep in task.deps}
                record.status, record.key, record.cached = "running", key, False
                # No partial accounting may survive a crash mid-task: zero
                # everything now, fill it in atomically at completion.
                record.reset_resources()
                record.started_unix = time.time()  # submit stamp until the worker reports
                self._save(state, result)
                if pool is None:
                    finish(_execute_task(name, task.fn, task.kwargs, dep_results))
                else:
                    future = pool.submit(
                        _execute_task, name, task.fn, task.kwargs, dep_results
                    )
                    running[future] = name

        def finish(payload):
            nonlocal step
            name, status, value, digest, wall, error, resources = payload
            task = self.graph[name]
            record = state.record(name)
            record.wall_s = wall
            record.cpu_user_s = resources["cpu_user_s"]
            record.cpu_sys_s = resources["cpu_sys_s"]
            record.peak_rss_kb = resources["peak_rss_kb"]
            record.worker = resources["worker"]
            record.started_unix = resources["started_unix"]
            record.finished_unix = record.started_unix + wall
            record.queue_wait_s = max(
                0.0, record.started_unix - ready_at.get(name, record.started_unix)
            )
            record.source = "executed"
            record.hit_count = 0
            step += 1
            if status == "ok":
                self.run_dir.store_result(name, value)
                record.status, record.error = "done", ""
                record.digest = digest
                digests[name] = digest
                completed.add(name)
                result.executed.append(name)
                result.results[name] = value
                note = ""
                if task.budget_s is not None and wall > task.budget_s:
                    record.over_budget = True
                    over = wall - task.budget_s
                    result.over_budget[name] = over
                    note = f"  OVER BUDGET ({task.budget_s:.0f}s +{over:.1f}s)"
                self.echo(f"[{step:>3}/{total}] {name:<22} done    {wall:6.1f}s{note}")
            else:
                record.status, record.error = "failed", error
                dead[name] = "failed"
                result.failed[name] = error
                last = error.strip().splitlines()[-1] if error.strip() else "failed"
                self.echo(f"[{step:>3}/{total}] {name:<22} FAILED  {wall:6.1f}s  {last}")
            self._save(state, result)

        try:
            launch_ready()
            while running:
                finished, _ = wait(list(running), return_when=FIRST_COMPLETED)
                for future in finished:
                    running.pop(future)
                    finish(future.result())
                launch_ready()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        result.wall_s = time.monotonic() - t0
        state.last_run.update(
            {
                "finished": time.time(),
                "wall_s": round(result.wall_s, 3),
                "executed": len(result.executed),
                "cached": len(result.cached),
                "failed": len(result.failed),
                "skipped": len(result.skipped),
                "over_budget": len(result.over_budget),
                "ok": result.ok,
            }
        )
        self._save(state, result)
        return result

    def _save(self, state: FlowState, result: FlowResult) -> None:
        # Keep the running counts current so a crash mid-run still leaves
        # an honest flow-state.json behind.
        state.last_run.update(
            {
                "executed": len(result.executed),
                "cached": len(result.cached),
                "failed": len(result.failed),
                "skipped": len(result.skipped),
            }
        )
        document = state.dumps()
        write_atomic(self.run_dir.state_path, document)
        # Mirror at the state root so CI can upload a stable path without
        # knowing the run key.
        try:
            write_atomic(Path(self.root) / "flow-state.json", document)
        except OSError:
            pass

    def load_result(self, name: str):
        """``(ok, value)`` for a previously completed task of this run."""
        if name not in self.graph:
            raise FlowError(f"unknown task {name!r}")
        return self.run_dir.load_result(name)
