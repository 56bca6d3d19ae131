"""Sweep points, the serial sweep runner, and the shared process context.

The paper's figures are parameter sweeps that are embarrassingly parallel
across configurations: every point builds its own :class:`Simulator` from an
explicit seed, so points share no state and can run in any order.  Each
experiment declares its grid once, as a list of :class:`SweepPoint`.
:func:`run_sweep` runs it serially in-process; the flow runner
(:mod:`repro.flow`), the only fan-out, runs each point as a task.  Both
merge into the same ``{point.key: result}`` mapping in declaration order.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

__all__ = ["SweepPoint", "run_sweep", "effective_jobs", "pool_context"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep.

    ``fn`` must be a module-level callable (it crosses process boundaries by
    reference) and ``kwargs`` must be picklable; ``key`` names the point in
    the merged result mapping.
    """

    key: Any
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``--jobs`` value: None/1 → serial, <=0 → all cores."""
    if jobs is None or jobs == 1:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def pool_context():
    """The multiprocessing context of the flow runner's workers and the
    rack's shards.

    fork keeps worker startup cheap and inherits sys.path and the
    environment (``REPRO_SCHED_POLICY`` included); fall back to the
    platform default where fork is unavailable.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_sweep(points: Iterable[SweepPoint]) -> Dict[Any, Any]:
    """Run every sweep point serially and return ``{point.key: result}``."""
    point_list: List[SweepPoint] = list(points)
    seen_keys = set()
    for point in point_list:
        if point.key in seen_keys:
            raise ValueError(f"duplicate sweep key {point.key!r}")
        seen_keys.add(point.key)
    return {point.key: point.fn(**dict(point.kwargs)) for point in point_list}
