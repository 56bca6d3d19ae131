"""Guard: code on the per-segment path reads no enum member through its class.

Loading ``CpuMode.GUEST`` goes through ``EnumType.__getattr__``, which
blocks the interpreter's attribute specialisation, and costs over 100 ns
more than a module-global load, on every simulated CPU segment.  Hot
code reads members through the module constants defined beside each
enum (``MODE_GUEST``, ``THREAD_RUNNING``, ``EXIT_HLT`` ...); DESIGN.md
§12, "Per-segment interpreter cost", has the measurements.

The check walks the bytecode of every function below and fails on a
global that resolves to an :class:`enum.Enum` subclass followed by an
attribute load, naming the function and the source line.
"""

from __future__ import annotations

import builtins
import dis
import enum
import types

import pytest

from repro.core.redirector import InterruptRedirector
from repro.guest.context import GuestCpuContext
from repro.guest.netstack import GuestNetstack
from repro.guest.tasks import CpuBurnTask, GuestTask
from repro.hw.core import Core
from repro.hw.msi import MsiMessage
from repro.hw.nic import LinkModel
from repro.kvm.exits import ExitStats
from repro.kvm.hypervisor import Kvm
from repro.kvm.routing import IrqRouter
from repro.kvm.vcpu import Vcpu
from repro.net.udp import GuestUdpTxFlow
from repro.sched.cfs import CfsRunqueue
from repro.sched.policy import SchedPolicy
from repro.sched.thread import Consume, CpuMode, Thread
from repro.vhost.handler import RxHandler, StockTxHandler
from repro.vhost.hybrid import HybridTxHandler
from repro.vhost.worker import VhostWorker
from repro.virtio.frontend import VirtioNetDriver

HOT_FUNCTIONS = [
    Core.enqueue, Core._reschedule, Core._complete_switch, Core._stop_current,
    Core.preempt_current, Core._run_current, Core._advance, Core._start_segment,
    Core._on_segment_complete, Core.poke_current, Core._sync_current_runtime,
    Thread.wake, Thread.poke, Thread.runnable.fget, Consume.__init__,
    SchedPolicy._note_enqueued, CfsRunqueue.enqueue, CfsRunqueue.pick_next,
    CfsRunqueue.update_curr,
    Vcpu.body, Vcpu._vm_exit, Vcpu._vm_entry, Vcpu._vm_exit_entry, Vcpu._guest_consume,
    Vcpu._do_kick, Vcpu._halt, Vcpu._run_interrupt, Vcpu._run_ops, Vcpu.on_host_ipi,
    Vcpu.on_sched_in, Vcpu.in_guest_mode_now.fget, Vcpu._take_vector,
    Kvm.exit_handle_cost, Kvm.handle_exit, Kvm.deliver_vcpu_interrupt, Kvm._timer_fire,
    ExitStats.record, IrqRouter.deliver_msi, IrqRouter._validate_redirect,
    InterruptRedirector.select, MsiMessage.allows,
    VhostWorker.body, StockTxHandler.run, RxHandler.run, HybridTxHandler.run,
    GuestTask.wake_task, CpuBurnTask.body, GuestCpuContext.next_op,
    LinkModel.serialize,
    GuestUdpTxFlow.sender_ops, VirtioNetDriver.xmit_ops, GuestNetstack.xmit_from_task_ops,
]

_ATTRIBUTE_LOADS = {"LOAD_ATTR", "LOAD_METHOD"}


def _lineno(instr, current):
    """The source line of ``instr`` on 3.9 through 3.13."""
    line = getattr(instr, "line_number", None)  # 3.13+
    if line is not None:
        return line
    start = instr.starts_line
    if isinstance(start, int) and not isinstance(start, bool):
        return start
    return current


def enum_attribute_loads(fn):
    """``["<qualname> line N: Enum.MEMBER", ...]`` for every class-attribute
    read of an enum member in ``fn``, nested code objects included."""
    namespace = fn.__globals__
    found = []

    def walk(code):
        line = code.co_firstlineno
        previous = None
        for instr in dis.get_instructions(code):
            line = _lineno(instr, line)
            if previous is not None and instr.opname in _ATTRIBUTE_LOADS:
                name = previous.argval
                target = namespace.get(name, getattr(builtins, name, None))
                if isinstance(target, type) and issubclass(target, enum.Enum):
                    found.append(f"{fn.__qualname__} line {line}: {name}.{instr.argval}")
            previous = instr if instr.opname == "LOAD_GLOBAL" else None
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(fn.__code__)
    return found


@pytest.mark.parametrize("fn", HOT_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_hot_path_reads_no_enum_member_through_its_class(fn):
    assert enum_attribute_loads(fn) == []


def test_the_guard_sees_a_class_attribute_read():
    def reads_through_the_class(mode):
        return mode is CpuMode.GUEST

    def reads_a_nested_one():
        return [m for m in (1, 2) if m is CpuMode.HOST]

    (hit,) = enum_attribute_loads(reads_through_the_class)
    assert hit.startswith("test_the_guard_sees_a_class_attribute_read.<locals>"
                          ".reads_through_the_class line ")
    assert hit.endswith(": CpuMode.GUEST")
    assert [h.split(": ")[1] for h in enum_attribute_loads(reads_a_nested_one)] == \
        ["CpuMode.HOST"]
