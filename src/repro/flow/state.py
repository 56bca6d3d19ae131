"""Resumable on-disk state for flow runs.

A flow run lives in a **run directory** under ``$REPRO_FLOW_DIR`` (default
``~/.cache/repro-es2/flow``), keyed by the graph's *structure* (task
names, deps, callables) and mode.  Task kwargs and the ``repro``
code-version hash are deliberately not part of the directory key — they
live in each task's :func:`task_key` — so re-invoking after a parameter
or code edit lands in the *same* run directory and re-runs exactly the
invalidated downstream cone, while an identical re-invocation resumes
where the previous one stopped.

Inside a run directory:

* ``flow-state.json`` — the machine-readable summary: one record per task
  (status, cache key, output digest, wall seconds, error, dependency
  names, and the schema-v2 resource accounting: CPU user/system seconds,
  peak-RSS delta, ready→start queue wait, worker id, start/finish stamps,
  cache-hit provenance) plus the counts of the most
  recent invocation (``executed``/``cached``/``failed``/``skipped``).
  Rewritten atomically after **every** task transition, so a crash
  mid-run loses at most the in-flight tasks.  Because the record carries
  its own ``deps``, downstream consumers (:mod:`repro.obs.flowreport`,
  :mod:`repro.flow.diff`) can reconstruct the DAG from the state file
  alone — no live graph required.
* ``results/<task>.pkl`` — the pickled return value of each completed
  task behind a SHA-256 checksum of the pickle, written atomically;
  dependents and re-invocations load from here (a mismatch is a miss).

A task's cache key folds in its dependencies' **output digests**, so a
task re-runs iff its own declaration changed, the code changed, or any
upstream output changed — the incremental-re-run contract.  This is the
repo's only result cache: keys and digests both rest on
:func:`canonical`, and :func:`code_version` hashes every ``repro``
source file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.flow.graph import Task

__all__ = [
    "STATE_SCHEMA_VERSION",
    "FlowState",
    "TaskRecord",
    "canonical",
    "code_version",
    "flow_root",
    "output_digest",
    "run_key_for",
    "task_key",
]

#: Bump on any backwards-incompatible change to flow-state.json.  Loading
#: an older schema returns ``None`` — the documented fresh-start path — so
#: no record can ever carry fields a previous schema never wrote.
#: v2: per-task resource accounting (cpu/rss/queue-wait/worker/stamps),
#: dependency names, and cache-hit provenance.  (v2 files written while
#: tasks had wall budgets also carry ``budget_s`` and ``over_budget``;
#: :meth:`FlowState.from_dict` ignores them.)
STATE_SCHEMA_VERSION = 2

#: Task lifecycle states recorded in flow-state.json.
STATUSES = ("pending", "running", "done", "failed", "skipped")


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the ``repro`` package source (memoized per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical(value: Any) -> str:
    """Deterministic textual form of a task argument or result.

    ``repr`` alone is unstable for dicts/sets and silent about dataclass
    subclassing; this walks containers and dataclasses explicitly so equal
    values always hash equally.
    """
    if is_dataclass(value) and not isinstance(value, type):
        inner = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}" for f in fields(value)
        )
        return f"{type(value).__qualname__}({inner})"
    if isinstance(value, Mapping):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ", ".join(f"{canonical(k)}: {canonical(v)}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(canonical(v) for v in sorted(value, key=repr)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(canonical(v) for v in value) + "]"
    if callable(value) and hasattr(value, "__qualname__"):
        # repr() of a function embeds its memory address, which would make
        # every cache key unique per process; the dotted name is stable.
        return f"{getattr(value, '__module__', '?')}.{value.__qualname__}"
    if type(value).__repr__ is object.__repr__ and hasattr(value, "__dict__"):
        # The default repr is an address too; the instance state is not.
        return f"{type(value).__qualname__}({canonical(vars(value))})"
    return repr(value)


def flow_root() -> Path:
    """``$REPRO_FLOW_DIR`` or ``~/.cache/repro-es2/flow``."""
    env = os.environ.get("REPRO_FLOW_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-es2" / "flow"


def run_key_for(tasks, mode: str) -> str:
    """Run-directory key: graph *structure* (names, deps, callables) × mode.

    Deliberately excludes task kwargs and the code version — both are
    folded into each task's :func:`task_key` instead, so editing a
    parameter or the code re-runs exactly the affected downstream cone
    *inside the same run directory* rather than orphaning it.
    """
    digest = hashlib.sha256()
    digest.update(f"mode={mode}".encode())
    for task in tasks:
        digest.update(
            f"|{task.name}<-{','.join(task.deps)}"
            f":{task.fn.__module__}.{task.fn.__qualname__}".encode()
        )
    return digest.hexdigest()[:16]


def task_key(task: Task, dep_digests: Mapping[str, str]) -> str:
    """Incremental-re-run key for one task.

    Folds the task's callable, canonical kwargs, the code version and the
    output digest of every dependency — so any upstream change
    invalidates exactly the downstream cone, nothing else.
    """
    blob = "|".join(
        (
            task.name,
            f"{task.fn.__module__}.{task.fn.__qualname__}",
            canonical(task.kwargs),
            code_version(),
            *(f"{dep}={dep_digests[dep]}" for dep in task.deps),
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def output_digest(value: Any) -> str:
    """Stable content digest of a task result (via :func:`canonical`)."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


@dataclass
class TaskRecord:
    """Per-task state as persisted in flow-state.json (schema v2).

    The resource fields describe the *execution* that produced the
    recorded result; a cache hit preserves them (they are the provenance
    of the cached value), while re-execution overwrites them.  The
    ``running`` transition resets every resource field first, so a crash
    mid-task can never leave a partial record that mixes a live status
    with a dead execution's numbers.
    """

    name: str
    status: str = "pending"
    kind: str = "task"
    key: str = ""  #: task_key() the recorded status/digest belongs to
    digest: str = ""  #: output_digest() of the persisted result
    wall_s: float = 0.0  #: seconds the recorded execution took
    error: str = ""  #: one-line failure reason when status == "failed"/"skipped"
    cached: bool = False  #: True when the last invocation resolved it from cache
    deps: List[str] = field(default_factory=list)  #: dependency names (DAG edges)
    cpu_user_s: float = 0.0  #: worker getrusage user-CPU delta
    cpu_sys_s: float = 0.0  #: worker getrusage system-CPU delta
    peak_rss_kb: int = 0  #: how much the task raised the worker's peak RSS
    queue_wait_s: float = 0.0  #: ready (all deps done) → execution start
    worker: str = ""  #: executing process label (``pid:<n>``)
    started_unix: float = 0.0  #: wall-clock execution start (0 = never ran)
    finished_unix: float = 0.0  #: wall-clock execution end (0 = in flight)
    source: str = ""  #: provenance: "executed" | "cache" (last invocation)
    hit_count: int = 0  #: cache resolutions since the recorded execution

    def reset_resources(self) -> None:
        """Clear every execution-scoped field (the ``running`` transition).

        Invoked before a task launches so an interrupted invocation leaves
        no stale resource numbers attached to a non-``done`` record.
        """
        self.wall_s = 0.0
        self.cpu_user_s = 0.0
        self.cpu_sys_s = 0.0
        self.peak_rss_kb = 0
        self.queue_wait_s = 0.0
        self.worker = ""
        self.started_unix = 0.0
        self.finished_unix = 0.0
        self.source = ""
        self.hit_count = 0


@dataclass
class FlowState:
    """Everything flow-state.json holds."""

    run_key: str
    mode: str
    code_version: str = field(default_factory=code_version)
    schema: int = STATE_SCHEMA_VERSION
    tasks: Dict[str, TaskRecord] = field(default_factory=dict)
    #: counts for the most recent invocation (the CI resume assertion reads
    #: ``executed`` — a fully-cached re-run must report 0 there).
    last_run: Dict[str, Any] = field(default_factory=dict)

    def record(self, name: str) -> TaskRecord:
        """The record for ``name``, created pending on first access."""
        if name not in self.tasks:
            self.tasks[name] = TaskRecord(name=name)
        return self.tasks[name]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "run_key": self.run_key,
            "mode": self.mode,
            "code_version": self.code_version,
            "last_run": dict(self.last_run),
            # vars(), not asdict(): the records are flat, and asdict's deep
            # copy would be most of the cost of a save, which every task
            # transition pays.
            "tasks": {name: dict(vars(rec)) for name, rec in self.tasks.items()},
        }

    def dumps(self) -> bytes:
        """The flow-state.json document."""
        return (json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FlowState":
        state = cls(
            run_key=doc["run_key"],
            mode=doc["mode"],
            code_version=doc["code_version"],
            schema=doc["schema"],
            last_run=dict(doc.get("last_run", {})),
        )
        for name, rec in doc.get("tasks", {}).items():
            known = {f: rec[f] for f in TaskRecord.__dataclass_fields__ if f in rec}
            state.tasks[name] = TaskRecord(**known)
        return state

    def save(self, path: os.PathLike) -> None:
        """Atomic write (temp file + rename)."""
        write_atomic(path, self.dumps())

    @classmethod
    def load(cls, path: os.PathLike) -> Optional["FlowState"]:
        """Load a state file; any read/parse failure is a fresh start."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or doc.get("schema") != STATE_SCHEMA_VERSION:
                return None
            return cls.from_dict(doc)
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            return None


def write_atomic(path: os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + rename: readers see the
    old file or the new one, never a torn write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: Bytes of SHA-256 checksum ahead of each result pickle.
_CHECKSUM = hashlib.sha256().digest_size


class RunDirectory:
    """Filesystem layout of one flow run (state file + result pickles)."""

    def __init__(self, root: Path, run_key: str):
        self.path = Path(root) / run_key
        self.state_path = self.path / "flow-state.json"
        self.results_dir = self.path / "results"

    def result_path(self, name: str) -> Path:
        return self.results_dir / f"{name}.pkl"

    def store_result(self, name: str, value: Any) -> None:
        """Persist one task result atomically; failures propagate (a run
        directory that cannot store results cannot honor resume)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(self.result_path(name), hashlib.sha256(payload).digest() + payload)

    def load_result(self, name: str) -> Tuple[bool, Any]:
        """``(ok, value)``; a checksum mismatch or any other failure degrades
        to a recompute, so damaged bytes are never served."""
        try:
            data = memoryview(self.result_path(name).read_bytes())  # no copies of a large result
            if hashlib.sha256(data[_CHECKSUM:]).digest() == data[:_CHECKSUM]:
                return True, pickle.loads(data[_CHECKSUM:])
        except Exception:  # unreadable, or a class renamed since it was written
            pass
        return False, None
