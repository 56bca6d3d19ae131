"""Pluggable host-scheduler policy interface and registry.

A :class:`SchedPolicy` is a per-core runnable queue plus the preemption
decisions the dispatch engine (:mod:`repro.hw.core`) delegates to it:

* ``enqueue`` / ``dequeue`` / ``pick_next`` — runnable-queue membership;
* ``update_curr`` — charge observed CPU time to the running thread;
* ``should_preempt_on_tick`` / ``should_preempt_on_wakeup`` — the two
  preemption points the engine exposes.

The engine never looks inside a policy: the *current* thread is tracked by
the core, the policy holds only threads waiting for the CPU.  Membership
bookkeeping (double-enqueue / unknown-dequeue guards, ``queued_weight``)
is shared here so every policy enforces the same conservation laws the
conformance suite checks.

Policy selection
----------------
``SchedParams.policy`` names the policy (default ``"cfs"``); nothing else
picks it.  :class:`~repro.hw.machine.Machine` checks the name against the
registry once, at construction, and builds every core's runqueue from it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.config import SchedParams
from repro.errors import ConfigError, SchedulerError
from repro.sched.thread import THREAD_READY, Thread

__all__ = [
    "SchedPolicy",
    "POLICIES",
    "DEFAULT_POLICY",
    "register_policy",
    "available_policies",
    "resolve_policy_name",
    "make_runqueue",
]

DEFAULT_POLICY = "cfs"

#: registered policy classes, keyed by ``cls.name``
POLICIES: Dict[str, Type["SchedPolicy"]] = {}


def register_policy(cls: Type["SchedPolicy"]) -> Type["SchedPolicy"]:
    """Class decorator: add a policy to the registry under ``cls.name``."""
    if not cls.name or cls.name in POLICIES:
        raise ConfigError(f"invalid or duplicate scheduler policy name: {cls.name!r}")
    POLICIES[cls.name] = cls
    return cls


class SchedPolicy:
    """Base class for per-core scheduling policies.

    Subclasses implement the ordering structure; the base keeps the
    authoritative membership map (``tid -> thread``) and ``queued_weight``
    so conservation invariants hold identically across policies.
    """

    #: registry key; subclasses must override
    name = "abstract"

    def __init__(self, params: SchedParams):
        self.params = params
        #: total CFS load weight of queued threads (excluding current)
        self.queued_weight = 0
        self._queued: Dict[int, Thread] = {}

    # ------------------------------------------------------------ membership
    def __len__(self) -> int:
        return len(self._queued)

    def has(self, thread: Thread) -> bool:
        """True when ``thread`` is queued here (the current thread is not)."""
        return thread.tid in self._queued

    def threads(self) -> List[Thread]:
        """Queued threads in deterministic (tid) order, for inspection."""
        return [self._queued[tid] for tid in sorted(self._queued)]

    def _note_enqueued(self, thread: Thread) -> None:
        if thread.tid in self._queued:
            raise SchedulerError(f"{thread.name} enqueued twice")
        self._queued[thread.tid] = thread
        self.queued_weight += thread.weight
        thread.state = THREAD_READY

    def _note_dequeued(self, thread: Thread) -> None:
        if self._queued.pop(thread.tid, None) is None:
            raise SchedulerError(f"{thread.name} not on this runqueue")
        self.queued_weight -= thread.weight

    # ------------------------------------------------------------- interface
    def enqueue(self, thread: Thread, wakeup: bool) -> None:
        """Add a runnable thread (``wakeup`` True when it just unblocked)."""
        raise NotImplementedError

    def dequeue(self, thread: Thread) -> None:
        """Remove a queued thread (migration, explicit removal)."""
        raise NotImplementedError

    def pick_next(self) -> Optional[Thread]:
        """Remove and return the thread to dispatch next (None when empty)."""
        raise NotImplementedError

    def update_curr(self, thread: Thread, delta_ns: int) -> None:
        """Charge ``delta_ns`` of observed CPU time to the running thread."""
        raise NotImplementedError

    def should_preempt_on_tick(self, current: Thread, ran_ns: int) -> bool:
        """Slice-expiry check performed from the scheduler tick."""
        raise NotImplementedError

    def should_preempt_on_wakeup(self, current: Thread, woken: Thread) -> bool:
        """Should ``woken`` (already enqueued) preempt ``current`` now?"""
        raise NotImplementedError

    # ------------------------------------------------------------ accounting
    def nr_running(self, current: Optional[Thread]) -> int:
        """Runnable thread count including the current one."""
        return len(self._queued) + (1 if current is not None else 0)

    def total_weight(self, current: Optional[Thread]) -> int:
        """Total CFS load weight including the current thread."""
        return self.queued_weight + (current.weight if current is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} nr={len(self)} weight={self.queued_weight}>"


def available_policies() -> List[str]:
    """Registered policy names, sorted."""
    _load_builtin_policies()
    return sorted(POLICIES)


def resolve_policy_name(params: SchedParams) -> str:
    """``params.policy``, checked against the registry."""
    configured = getattr(params, "policy", DEFAULT_POLICY)
    _load_builtin_policies()
    if configured not in POLICIES:
        raise ConfigError(
            f"unknown scheduler policy {configured!r}; available: {', '.join(sorted(POLICIES))}"
        )
    return configured


def make_runqueue(params: SchedParams, name: Optional[str] = None) -> SchedPolicy:
    """Instantiate the runqueue for ``params`` (optionally pre-resolved)."""
    if name is None:
        name = resolve_policy_name(params)
    _load_builtin_policies()
    cls = POLICIES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown scheduler policy {name!r}; available: {', '.join(sorted(POLICIES))}"
        )
    return cls(params)


def _load_builtin_policies() -> None:
    """Import the built-in policy modules so their decorators register."""
    # Deferred to avoid a config -> policy -> cfs import cycle at module load.
    import repro.sched.cfs  # noqa: F401
    import repro.sched.policies  # noqa: F401
