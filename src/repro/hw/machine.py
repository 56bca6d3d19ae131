"""The simulated host machine: cores, LAPICs, scheduler plumbing, NIC."""

from __future__ import annotations

from typing import List, Optional

from repro.config import CostModel, SchedParams, default_cost_model
from repro.errors import HardwareError
from repro.hw.core import Core
from repro.hw.lapic import LocalApic
from repro.hw.nic import Nic
from repro.sched.notifier import NotifierSet
from repro.sched.placement import Placement
from repro.sched.policy import SchedPolicy, make_runqueue, resolve_policy_name
from repro.sched.thread import Thread
from repro.sim.simulator import Simulator

__all__ = ["Machine"]


class Machine:
    """An SMP host (the paper's 8-core Xeon server).

    Owns the physical cores, their Local-APICs, the preemption-notifier set,
    the wakeup placement policy, and the host NIC.  Hypervisor and thread
    objects are layered on top and reference the machine.
    """

    def __init__(
        self,
        sim: Simulator,
        n_cores: int = 8,
        cost: Optional[CostModel] = None,
        sched_params: Optional[SchedParams] = None,
        name: str = "host",
    ):
        if n_cores <= 0:
            raise HardwareError("a machine needs at least one core")
        self.sim = sim
        self.name = name
        self.cost = cost if cost is not None else default_cost_model()
        self.cost.validate()
        self.sched_params = sched_params if sched_params is not None else SchedParams()
        self.sched_params.validate()
        # Checked once: every core's runqueue is built from this name.
        self.sched_policy = resolve_policy_name(self.sched_params)
        self.notifiers = NotifierSet()
        self.placement = Placement(self)
        self.cores: List[Core] = [Core(self, i) for i in range(n_cores)]
        for core in self.cores:
            core.lapic = LocalApic(core)
        self.nic = Nic(sim, f"{name}-nic")
        self.threads: List[Thread] = []
        self._ticking = False

    # ------------------------------------------------------------- scheduler
    def make_runqueue(self) -> SchedPolicy:
        """Instantiate one per-core runqueue of the resolved policy."""
        return make_runqueue(self.sched_params, self.sched_policy)

    # --------------------------------------------------------------- threads
    def spawn(self, thread: Thread) -> Thread:
        """Register and start a thread on this machine."""
        self.threads.append(thread)
        thread.start()
        return thread

    # ----------------------------------------------------------------- ticks
    def start_ticks(self) -> None:
        """Begin the per-core scheduler tick train (idempotent)."""
        if self._ticking:
            return
        self._ticking = True
        # Stagger ticks across cores the way real per-CPU timers drift apart,
        # so all cores don't reschedule at the same instant.
        period = self.sched_params.tick_ns
        for core in self.cores:
            offset = (period * (core.index + 1)) // (len(self.cores) + 1)
            self.sim.schedule(period + offset, self._tick, core)

    def _tick(self, core: Core) -> None:
        core.on_tick()
        self.sim.schedule(self.sched_params.tick_ns, self._tick, core)

    # ------------------------------------------------------------------ IPIs
    def send_ipi(self, from_core: Core, to_core: Core, vector: int, kind: str) -> None:
        """Send an IPI from one core's LAPIC to another core."""
        from_core.lapic.send_ipi(to_core, vector, kind)

    def post_ipi(self, to_core: Core, vector: int, kind: str) -> None:
        """Send an IPI whose origin is the platform (hypervisor context)."""
        self.sim.schedule(self.cost.ipi_flight_ns, self._deliver_ipi, to_core, vector, kind)

    @staticmethod
    def _deliver_ipi(to_core: Core, vector: int, kind: str) -> None:
        to_core.lapic.ipis_received += 1
        to_core.on_ipi(vector, kind)

    # ------------------------------------------------------------ accounting
    def runqueue_depths(self) -> List[int]:
        """Per-core runnable thread counts, the running thread included.

        Observability gauge (repro.obs.timeline): index ``i`` is the depth
        of core ``i``'s runqueue, counting the thread currently on the
        core — a dedicated core running one vCPU reads 1, an idle core 0.
        """
        return [c.rq.nr_running(c.current) for c in self.cores]

    def busy_fraction(self, elapsed: int) -> float:
        """Machine-wide non-idle fraction over ``elapsed`` ns."""
        if elapsed <= 0:
            return 0.0
        return sum(c.busy_time() for c in self.cores) / (elapsed * len(self.cores))
