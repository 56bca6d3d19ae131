"""Adaptive backend-CPU allocation (after arXiv 2310.14741).

Virtualized hosts statically partition cores between I/O backend threads
(vhost workers) and vCPU/emulator threads; a partition tuned for one load
mix wastes cores on another.  This controller re-apportions cores between
the two classes at runtime from *observed* pressure:

* instantaneous runqueue depth on each class's cores (queueing pressure);
* the class's event rate over the last interval — VM exits for the vCPU
  side, vhost handler rounds for the backend side — read from the obs
  counter registry, i.e. the same signals a real implementation gets from
  ``kvm_stat`` and vhost accounting.

Every ``adaptive_interval_ns`` the controller compares per-core pressure
of the two classes and, past a relative ``adaptive_hysteresis`` imbalance,
moves one core from the calm side to the loaded side, re-pinning and
migrating the displaced threads.  Class floors
(``adaptive_min_backend_cores`` / ``adaptive_min_vcpu_cores``) bound the
partition.  One core moves per interval — the control loop is deliberately
damped, matching the paper's observation that allocation changes are much
slower events than I/O operations.

The controller also narrows wakeup placement: once active, unpinned
threads of a managed class are placed only on that class's cores (it
installs itself into :class:`~repro.sched.placement.Placement`).

Everything is deterministic: evaluation happens on the simulated clock,
candidate choices break ties by core index and thread tid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.sched.thread import THREAD_FINISHED, THREAD_READY, Thread

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.core import Core
    from repro.hw.machine import Machine

__all__ = ["AdaptiveAllocator"]

#: one class event per this many ns ≈ a fully busy core (typical per-packet
#: handling cost); calibrates event rates into the same scale as rq depth
_RATE_FULL_NS = 5_000


class AdaptiveAllocator:
    """Periodic vhost/vCPU core re-apportioning controller for one machine."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.sim = machine.sim
        params = machine.sched_params
        self.interval_ns = params.adaptive_interval_ns
        self.min_backend = params.adaptive_min_backend_cores
        self.min_vcpu = params.adaptive_min_vcpu_cores
        self.hysteresis = params.adaptive_hysteresis
        #: cores currently assigned to vhost backend threads
        self.backend_cores: List["Core"] = []
        #: cores currently assigned to vCPU/emulator threads
        self.vcpu_cores: List["Core"] = []
        self._started = False
        self._ev = None
        self._prev_exits = 0
        self._prev_rounds = 0
        # Control-loop counters (exported under sched.adaptive.<machine>).
        self.evaluations = 0
        self.rebalances = 0
        self.migrations = 0
        self.cores_to_backend = 0
        self.cores_to_vcpu = 0
        self.sim.obs.counters.register(
            f"sched.adaptive.{machine.name}",
            self,
            ("evaluations", "rebalances", "migrations", "cores_to_backend", "cores_to_vcpu"),
        )

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        """Install into placement and begin periodic evaluation (idempotent)."""
        if self._started:
            return
        self._started = True
        self.machine.placement.allocator = self
        self._ev = self.sim.schedule(self.interval_ns, self._evaluate)

    def stop(self) -> None:
        """Detach from placement and stop evaluating."""
        if not self._started:
            return
        self._started = False
        if self.machine.placement.allocator is self:
            self.machine.placement.allocator = None
        if self._ev is not None:
            self.sim.cancel(self._ev)
            self._ev = None

    # ----------------------------------------------------------- classification
    def _is_backend(self, thread: Thread) -> bool:
        from repro.vhost.worker import VhostWorker

        return isinstance(thread, VhostWorker)

    def _class_of(self, thread: Thread) -> Optional[str]:
        if self._is_backend(thread):
            return "backend"
        if thread.is_vcpu:
            return "vcpu"
        return None

    def cores_for(self, thread: Thread) -> Optional[List["Core"]]:
        """The core set an unpinned thread of a managed class may land on."""
        cls = self._class_of(thread)
        if cls == "backend" and self.backend_cores:
            return self.backend_cores
        if cls == "vcpu" and self.vcpu_cores:
            return self.vcpu_cores
        return None

    def _partition(self) -> None:
        """Initial partition from current pinnings (first evaluation).

        A core hosting any pinned vCPU belongs to the vCPU side; of the
        rest, cores hosting pinned vhost workers form the backend side and
        unclaimed cores default to the vCPU/emulator side (the paper's
        emulator pool absorbs whatever the backend does not need).
        """
        vcpu_pins = set()
        backend_pins = set()
        for t in self.machine.threads:
            if t.pinned_core is None:
                continue
            cls = self._class_of(t)
            if cls == "vcpu":
                vcpu_pins.add(t.pinned_core)
            elif cls == "backend":
                backend_pins.add(t.pinned_core)
        self.backend_cores = [
            c for c in self.machine.cores if c.index in backend_pins and c.index not in vcpu_pins
        ]
        self.vcpu_cores = [c for c in self.machine.cores if c not in self.backend_cores]

    # ------------------------------------------------------------- evaluation
    def _read_rates(self):
        """Class event totals from the obs registry (exits, vhost rounds).

        ``snapshot_group`` returns ``{path: {counter: value}}`` — one inner
        dict per registered group.
        """
        counters = self.sim.obs.counters
        exits = 0
        for group in counters.snapshot_group("kvm.exits").values():
            exits += sum(int(v) for v in group.values())
        rounds = 0
        for group in counters.snapshot_group("vhost.worker").values():
            rounds += int(group.get("rounds", 0)) + int(group.get("wakeups", 0))
        return exits, rounds

    def _pressure(self, cores: List["Core"], events: int) -> int:
        """Per-core pressure ×1000: mean rq depth plus normalized event rate."""
        if not cores:
            return 0
        depth = sum(c.rq.nr_running(c.current) for c in cores)
        rate_full = max(1, self.interval_ns // _RATE_FULL_NS)
        rate = min(len(cores) * 1000, events * 1000 // rate_full)
        return (depth * 1000 + rate) // len(cores)

    def _evaluate(self) -> None:
        self._ev = None
        if not self._started:
            return
        self.evaluations += 1
        if not self.backend_cores and not self.vcpu_cores:
            self._partition()
        exits, rounds = self._read_rates()
        # Clamp at 0: a registry reset (bench warmup boundary) between
        # evaluations would otherwise yield a negative interval delta.
        d_exits, self._prev_exits = max(0, exits - self._prev_exits), exits
        d_rounds, self._prev_rounds = max(0, rounds - self._prev_rounds), rounds
        backend_p = self._pressure(self.backend_cores, d_rounds)
        vcpu_p = self._pressure(self.vcpu_cores, d_exits)
        scale = 1.0 + self.hysteresis
        if backend_p > vcpu_p * scale and len(self.vcpu_cores) > self.min_vcpu:
            self._move_core(self.vcpu_cores, self.backend_cores, "backend")
            self.cores_to_backend += 1
        elif vcpu_p > backend_p * scale and len(self.backend_cores) > self.min_backend:
            self._move_core(self.backend_cores, self.vcpu_cores, "vcpu")
            self.cores_to_vcpu += 1
        self._ev = self.sim.schedule(self.interval_ns, self._evaluate)

    # ------------------------------------------------------------- rebalancing
    def _move_core(self, src: List["Core"], dst: List["Core"], dst_class: str) -> None:
        """Reassign the least-loaded ``src`` core to the ``dst`` class."""
        self.rebalances += 1
        moved = min(src, key=lambda c: (c.rq.nr_running(c.current), c.index))
        src.remove(moved)
        dst.append(moved)
        dst.sort(key=lambda c: c.index)
        src_class = "backend" if dst_class == "vcpu" else "vcpu"
        # Displace the losing class off the moved core ...
        for t in self._class_threads(src_class):
            if t.pinned_core == moved.index and src:
                target = min(src, key=lambda c: (c.rq.nr_running(c.current), c.index))
                self._migrate(t, target)
        # ... and spread the gaining class onto it: pull one thread from the
        # most crowded dst core (if any core hosts more than one).
        counts: Dict[int, List[Thread]] = {c.index: [] for c in dst}
        for t in self._class_threads(dst_class):
            if t.pinned_core in counts:
                counts[t.pinned_core].append(t)
        crowded = max(
            (idx for idx in counts if idx != moved.index),
            key=lambda idx: (len(counts[idx]), -idx),
            default=None,
        )
        if crowded is not None and len(counts[crowded]) > 1:
            t = min(counts[crowded], key=lambda th: th.tid)
            self._migrate(t, moved)

    def _class_threads(self, cls: str) -> List[Thread]:
        return [
            t
            for t in sorted(self.machine.threads, key=lambda th: th.tid)
            if self._class_of(t) == cls and t.state is not THREAD_FINISHED
        ]

    def _migrate(self, thread: Thread, core: "Core") -> None:
        """Re-pin ``thread`` to ``core``, moving it now if it is queued.

        Running or mid-switch threads only get the new pin — they migrate
        at their next wakeup, like a real affinity change taking effect at
        the next scheduling point.
        """
        thread.pinned_core = core.index
        old = thread.core
        if old is None or old is core:
            return
        if thread.state is THREAD_READY and old.rq.has(thread):
            old.rq.dequeue(thread)
            core.enqueue(thread, wakeup=False)
            self.migrations += 1
