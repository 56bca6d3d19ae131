"""Host scheduling: threads, pluggable per-core runqueues, preemption notifiers.

The execution model is cooperative generators with *exact preemption*:
thread bodies are generator coroutines yielding :class:`~repro.sched.thread.Consume`
(CPU time), :class:`~repro.sched.thread.Block`, or :class:`~repro.sched.thread.YieldCPU`
requests.  A CPU segment in flight can be interrupted at any instant —
either by the scheduler (tick/wakeup preemption, transparent to the thread)
or by an interrupt poke (the thread is resumed early with the amount of CPU
actually consumed).  This gives microsecond-exact interrupt latency without
chopping work into tiny events.

Per-core runqueues implement the :class:`~repro.sched.policy.SchedPolicy`
interface; the shipped zoo is CFS (default), round-robin, multilevel
feedback queue, and deadline, selected by ``SchedParams.policy``.
"""

from repro.sched.thread import Block, Consume, CpuMode, Thread, YieldCPU
from repro.sched.policy import (
    POLICIES,
    SchedPolicy,
    available_policies,
    make_runqueue,
    register_policy,
    resolve_policy_name,
)
from repro.sched.cfs import CfsRunqueue, nice_to_weight
from repro.sched.policies import DeadlineQueue, MultilevelFeedbackQueue, RoundRobinQueue
from repro.sched.adaptive import AdaptiveAllocator
from repro.sched.notifier import PreemptionNotifier, NotifierSet

__all__ = [
    "Thread",
    "Consume",
    "Block",
    "YieldCPU",
    "CpuMode",
    "SchedPolicy",
    "POLICIES",
    "available_policies",
    "make_runqueue",
    "register_policy",
    "resolve_policy_name",
    "CfsRunqueue",
    "RoundRobinQueue",
    "MultilevelFeedbackQueue",
    "DeadlineQueue",
    "AdaptiveAllocator",
    "nice_to_weight",
    "PreemptionNotifier",
    "NotifierSet",
]
