"""The experiment DAG: task declarations and dependency resolution.

A :class:`Task` is one node of the orchestration graph — an experiment
sweep, a figure render, the bench report, the dashboard — declared as a
module-level callable plus picklable kwargs (the same contract as
:class:`repro.parallel.SweepPoint`, because tasks cross process
boundaries the same way).  A :class:`TaskGraph` owns the nodes, checks
the dependency structure up front (unknown deps, duplicates, cycles) and
answers the two scheduling questions the runner asks: a deterministic
topological order, and the ancestor closure of a ``--only`` selection.

Determinism note: :meth:`TaskGraph.topological_order` is Kahn's
algorithm with a FIFO ready queue seeded in insertion order, so the
order is a pure function of the declaration — worker scheduling can
never reshuffle it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["FlowError", "Task", "TaskGraph"]


class FlowError(ReproError):
    """Raised for invalid flow graphs or runner misuse (cycles, unknown tasks)."""


@dataclass(frozen=True)
class Task:
    """One node of the experiment DAG.

    ``fn`` is called as ``fn(deps, **kwargs)`` where ``deps`` maps each
    dependency's task name to its result.  It must be a module-level
    callable and ``kwargs`` must be picklable so the task can run in a
    worker process; results must be picklable so they can be persisted
    to the run directory.
    """

    name: str
    fn: Callable[..., Any]
    deps: Tuple[str, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    kind: str = "task"  #: coarse grouping for display: calibrate/point/sweep/render/...
    description: str = ""


class TaskGraph:
    """An insertion-ordered DAG of :class:`Task` nodes."""

    def __init__(self, tasks: Iterable[Task] = ()):
        self._tasks: Dict[str, Task] = {}
        for task in tasks:
            self.add(task)

    def add(self, task: Task) -> Task:
        """Add a node; duplicate names are declaration bugs, not data."""
        if task.name in self._tasks:
            raise FlowError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        return task

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __getitem__(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise FlowError(f"unknown task {name!r}") from None

    @property
    def tasks(self) -> List[Task]:
        """All tasks in declaration order."""
        return list(self._tasks.values())

    def validate(self) -> None:
        """Check every declared dependency exists and the graph is acyclic."""
        for task in self._tasks.values():
            for dep in task.deps:
                if dep not in self._tasks:
                    raise FlowError(f"task {task.name!r} depends on unknown task {dep!r}")
        self.topological_order()

    def topological_order(self, names: Optional[Iterable[str]] = None) -> List[str]:
        """Deterministic topological order of ``names`` (default: all tasks).

        Raises :class:`FlowError` naming the offending tasks when the
        (sub)graph contains a cycle.
        """
        selected = list(self._tasks) if names is None else list(names)
        indegree: Dict[str, int] = dict.fromkeys(selected, 0)
        # Dependents kept in selected order make the FIFO deterministic; one
        # pass over the edges keeps this linear in the (point-sized) graph.
        dependents: Dict[str, List[str]] = {name: [] for name in selected}
        for name in selected:
            for dep in self[name].deps:
                if dep in indegree:
                    indegree[name] += 1
                    dependents[dep].append(name)
        ready = [name for name in selected if indegree[name] == 0]
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(selected):
            cyclic = sorted(set(selected) - set(order))
            raise FlowError(f"dependency cycle among tasks: {', '.join(cyclic)}")
        return order

    def closure(self, names: Sequence[str]) -> List[str]:
        """``names`` plus every transitive dependency, topologically ordered.

        This is the ``--only`` semantics: asking for a figure render pulls
        in its sweep (and the sweep's calibration) automatically.
        """
        pending = list(names)
        seen: set = set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            pending.extend(self[name].deps)
        # Seed in declaration order, not set order, to keep the result a
        # pure function of the declaration (hash order is not).
        return self.topological_order([n for n in self._tasks if n in seen])
