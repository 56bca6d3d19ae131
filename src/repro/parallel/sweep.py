"""Fan experiment sweep points out over multiprocessing workers.

The paper's figures are parameter sweeps that are embarrassingly parallel
across configurations: every point builds its own :class:`Simulator` from an
explicit seed, so points share no state and can run in any order.  This
module is the single fan-out choke point:

* each point is a module-level function plus picklable kwargs
  (:class:`SweepPoint`);
* results are merged **order-independently** — keyed by the point's index,
  collected from ``imap_unordered`` — so worker scheduling cannot influence
  the output.

Determinism contract: for a fixed code version, ``run_sweep(points)`` and
``run_sweep(points, jobs=N)`` return identical mappings for every ``N``.
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


def _execute(payload):
    index, fn, kwargs = payload
    return index, fn(**kwargs)


def pool_context():
    """The multiprocessing context every repro fan-out shares.

    fork keeps worker startup cheap and inherits sys.path; fall back to
    the platform default where fork is unavailable.  The flow runner
    (:mod:`repro.flow.runner`) schedules whole tasks on the same context
    so sweep-level and task-level parallelism behave identically.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_sweep(
    points: Iterable[SweepPoint],
    jobs: Optional[int] = None,
) -> Dict[Any, Any]:
    """Run every sweep point and return ``{point.key: result}``.

    Parameters
    ----------
    jobs:
        Worker processes: ``None``/1 runs serially in-process, ``<= 0``
        uses every core, otherwise the given count.
    """
    point_list: List[SweepPoint] = list(points)
    seen_keys = set()
    for point in point_list:
        if point.key in seen_keys:
            raise ValueError(f"duplicate sweep key {point.key!r}")
        seen_keys.add(point.key)

    n_jobs = min(effective_jobs(jobs), max(1, len(point_list)))
    if n_jobs <= 1:
        return {point.key: point.fn(**dict(point.kwargs)) for point in point_list}
    results: Dict[int, Any] = {}
    payloads = [(index, point.fn, dict(point.kwargs))
                for index, point in enumerate(point_list)]
    with pool_context().Pool(processes=n_jobs) as pool:
        # Completion order is scheduling noise; keying by index makes
        # the merge independent of it.
        for index, value in pool.imap_unordered(_execute, payloads, chunksize=1):
            results[index] = value
    return {point.key: results[index] for index, point in enumerate(point_list)}
