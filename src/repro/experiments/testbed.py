"""Testbed builders reproducing the paper's experimental setup (VI-A).

Two x86 servers connected back-to-back over 40GbE: one runs the hypervisor
with the tested VM(s), the other is the traffic generator.  Two canonical
layouts cover all experiments:

* :func:`single_vcpu_testbed` — one 1-vCPU VM with a dedicated core
  (quota-selection and exit-rate experiments, Figs. 4-5 / Table I);
* :func:`multiplexed_testbed` — four 4-vCPU VMs time-sharing four physical
  cores, with one vCPU of *each* VM pinned to each core (micro/macro
  benchmarks, Figs. 6-9).  This is the layout that produces vCPU stacking
  and hence scheduling-delayed interrupt delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.timeline import TimelineSampler

from repro.config import CostModel, FeatureSet, SchedParams
from repro.errors import ConfigError
from repro.core.controller import Es2Controller
from repro.guest.netstack import GuestNetstack
from repro.guest.os import GuestOS
from repro.guest.tasks import CpuBurnTask
from repro.hw.machine import Machine
from repro.hw.nic import Link
from repro.kvm.hypervisor import Kvm
from repro.kvm.vm import VirtualMachine
from repro.net.bridge import HostBridge
from repro.net.endpoints import ExternalHost
from repro.sim.simulator import Simulator
from repro.vhost.net import VhostNet
from repro.virtio.device import VirtioNetDevice
from repro.virtio.frontend import VirtioNetDriver

__all__ = ["VmSetup", "Testbed", "single_vcpu_testbed", "multiplexed_testbed"]


@dataclass
class VmSetup:
    """Everything belonging to one VM on the testbed.

    ``vhost`` is None for SR-IOV VMs — the defining property of device
    assignment is that no host backend sits on the data path.
    """

    vm: VirtualMachine
    guest_os: GuestOS
    device: object
    vhost: Optional[VhostNet]
    driver: VirtioNetDriver
    netstack: GuestNetstack

    @property
    def name(self) -> str:
        """The VM's name (also its network address)."""
        return self.vm.name

    @property
    def is_sriov(self) -> bool:
        """True when the VM uses a directly-assigned VF (no vhost)."""
        return self.vhost is None


class Testbed:
    """The two-server testbed: simulated host + bare-metal peer + 40GbE link."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        seed: int = 1,
        n_cores: int = 8,
        cost: Optional[CostModel] = None,
        sched_params: Optional[SchedParams] = None,
        link_gbps: float = 40.0,
    ):
        self.sim = Simulator(seed=seed)
        self.machine = Machine(self.sim, n_cores=n_cores, cost=cost, sched_params=sched_params)
        self.kvm = Kvm(self.machine)
        self.es2 = Es2Controller(self.kvm)
        self.bridge = HostBridge(self.machine)
        self.external = ExternalHost(self.sim)
        self.link = Link(self.sim, self.machine.nic, self.external.nic, rate_gbps=link_gbps)
        self.machine.start_ticks()
        self.vm_setups: List[VmSetup] = []
        #: adaptive backend-CPU allocator, created by boot() when enabled
        self.adaptive = None

    # ------------------------------------------------------------------ VMs
    def add_vm(
        self,
        name: str,
        n_vcpus: int,
        features: FeatureSet,
        vcpu_pinning: Optional[List[Optional[int]]] = None,
        vhost_core: Optional[int] = None,
        guest_timer: bool = True,
        cpu_burn: bool = True,
        irq_vcpu: int = 0,
    ) -> VmSetup:
        """Create a VM with one vhost-net paravirtual NIC, the paper's setup."""
        vm = self.kvm.create_vm(name, n_vcpus, features, vcpu_pinning=vcpu_pinning)
        guest_os = GuestOS(vm)
        device = VirtioNetDevice(vm)
        vhost = VhostNet(device, pinned_core=vhost_core)
        driver = VirtioNetDriver(guest_os, device, irq_vcpu=irq_vcpu)
        return self._wire_vm(guest_os, device, vhost, driver, guest_timer, cpu_burn)

    def add_sriov_vm(
        self,
        name: str,
        n_vcpus: int,
        features: FeatureSet,
        vcpu_pinning: Optional[List[Optional[int]]] = None,
        guest_timer: bool = True,
        cpu_burn: bool = True,
        irq_vcpu: int = 0,
    ) -> VmSetup:
        """Create a VM with a directly-assigned Virtual Function (Section VII).

        There is no vhost backend: I/O requests go straight to the device
        (no I/O-instruction exits), and interrupts follow the VM's feature
        set — the emulated-APIC conversion path when ``features.pi`` is off
        (the "assigned baseline"), or VT-d-style posted delivery when it is
        on, optionally with intelligent redirection.
        """
        from repro.sriov.driver import VfDriver
        from repro.sriov.vf import VfDevice

        vm = self.kvm.create_vm(name, n_vcpus, features, vcpu_pinning=vcpu_pinning)
        guest_os = GuestOS(vm)
        device = VfDevice(vm)
        driver = VfDriver(guest_os, device, irq_vcpu=irq_vcpu)
        return self._wire_vm(guest_os, device, None, driver, guest_timer, cpu_burn)

    def _wire_vm(self, guest_os: GuestOS, device, vhost: Optional[VhostNet],
                 driver: VirtioNetDriver, guest_timer: bool, cpu_burn: bool) -> VmSetup:
        """Give a VM with a NIC its netstack, bridge port, guest timer and
        CPU-burn tasks, and record its setup."""
        vm = guest_os.vm
        netstack = GuestNetstack(guest_os, driver)
        self.bridge.attach(vm.name, device)
        if guest_timer:
            self.kvm.start_guest_timer(vm)
        if cpu_burn:
            guest_os.add_task_per_vcpu(lambda i: CpuBurnTask(f"{vm.name}-burn{i}"))
        setup = VmSetup(vm, guest_os, device, vhost, driver, netstack)
        self.vm_setups.append(setup)
        return setup

    def boot(self, stagger: bool = True) -> None:
        """Start every VM's vCPU threads.

        With ``stagger`` (default), each vCPU thread starts at a random
        offset within one scheduling period.  Without it, same-core vCPU
        threads of different VMs hold identical vruntimes and rotate in
        lockstep across all cores — an artificial synchronization real
        hosts don't exhibit (boot noise, interrupts and I/O desynchronize
        them), which would understate the probability that some vCPU of a
        VM is online.
        """
        rng = self.sim.rng.stream("boot-stagger")
        period = self.machine.sched_params.sched_latency_ns
        for setup in self.vm_setups:
            for vcpu in setup.vm.vcpus:
                if vcpu.guest_ctx is None:
                    raise ConfigError(f"{vcpu.name}: boot without a guest context")
                delay = rng.randrange(period) if stagger else 0
                self.sim.schedule(delay, self.machine.spawn, vcpu)
        if self.machine.sched_params.adaptive_alloc and self.adaptive is None:
            from repro.sched.adaptive import AdaptiveAllocator

            self.adaptive = AdaptiveAllocator(self.machine)
            self.adaptive.start()

    def enable_timeline(
        self,
        window_ns: int = 100_000,
        watchdog: bool = True,
    ) -> "TimelineSampler":
        """Turn on windowed telemetry with the standard gauge wiring.

        Installs ``sim.obs.timeline`` (and, by default, the invariant
        watchdog) via :meth:`Simulator.enable_timeline`, then wires the
        testbed's topology into it:

        * per-core runqueue depth (``host.runqueue.core<i>``);
        * per-device virtio ring occupancy and tap-backlog length;
        * hybrid TX handlers: current service mode (``1`` = polling) and
          per-window notification/polling residency fractions;
        * per-VM ES2 tracker online/offline list lengths;
        * event-queue depth.

        The watchdog additionally gets every vhost-backed device's rings
        and conservation counters, and each hybrid handler's residency
        pair.  Safe to call once per testbed, any time after the VMs are
        added.
        """
        sim = self.sim
        already = sim.obs.timeline is not None
        tl = sim.enable_timeline(window_ns=window_ns, watchdog=watchdog)
        if already:
            return tl

        machine = self.machine
        for i in range(len(machine.cores)):
            tl.add_gauge(f"host.runqueue.core{i}",
                         lambda i=i: machine.runqueue_depths()[i])
        tl.add_gauge("sim.event_queue", lambda: len(sim.queue))
        if self.adaptive is not None:
            alloc = self.adaptive
            tl.add_gauge("sched.adaptive.backend_cores",
                         lambda: float(len(alloc.backend_cores)))
            tl.add_gauge("sched.adaptive.vcpu_cores",
                         lambda: float(len(alloc.vcpu_cores)))

        wd = sim.obs.watchdog
        for setup in self.vm_setups:
            vm = setup.vm
            tracker = self.es2.tracker
            tl.add_gauge(f"es2.{vm.name}.online",
                         lambda vm=vm: len(tracker.online_indices(vm)))
            tl.add_gauge(f"es2.{vm.name}.offline",
                         lambda vm=vm: len(tracker.offline_order(vm)))
            if setup.is_sriov:
                continue
            device = setup.device
            tl.add_gauge(f"virtio.{device.name}.txq", device.txq.__len__)
            tl.add_gauge(f"virtio.{device.name}.rxq", device.rxq.__len__)
            tl.add_gauge(f"virtio.{device.name}.backlog", device.backlog.__len__)
            if wd is not None:
                wd.add_device(device)
            vhost = setup.vhost
            if vhost is not None and vhost.hybrid:
                h = vhost.tx_handler
                base = f"vhost.{device.name}/tx"
                tl.add_gauge(f"{base}.mode_polling",
                             lambda h=h: 1.0 if h.service_mode_now == "polling" else 0.0)
                ids = (f"{base}.residency.notification", f"{base}.residency.polling")
                tl.add_residency(ids[0],
                                 lambda now, h=h: h.mode_residency_ns(now)["notification"])
                tl.add_residency(ids[1],
                                 lambda now, h=h: h.mode_residency_ns(now)["polling"])
                if wd is not None:
                    wd.add_residency(base, ids)
        return tl

    # ------------------------------------------------------------------ runs
    def run_for(self, duration_ns: int) -> None:
        """Advance the simulation by ``duration_ns``."""
        self.sim.run_for(duration_ns)

    @property
    def tested(self) -> VmSetup:
        """The VM under test (the first one added, by convention)."""
        return self.vm_setups[0]


def single_vcpu_testbed(
    features: FeatureSet,
    seed: int = 1,
    cost: Optional[CostModel] = None,
    guest_timer: bool = True,
    sched_params: Optional[SchedParams] = None,
) -> Testbed:
    """One 1-vCPU / 1GB VM on the 8-core host, dedicated core (VI-B/C)."""
    tb = Testbed(seed=seed, cost=cost, sched_params=sched_params)
    tb.add_vm(
        "tested",
        n_vcpus=1,
        features=features,
        vcpu_pinning=[0],
        vhost_core=4,
        guest_timer=guest_timer,
    )
    tb.boot()
    return tb


def multiplexed_testbed(
    features: FeatureSet,
    seed: int = 1,
    n_vms: int = 4,
    vcpus_per_vm: int = 4,
    shared_cores: int = 4,
    cost: Optional[CostModel] = None,
    sched_params: Optional[SchedParams] = None,
) -> Testbed:
    """Four 4-vCPU VMs time-sharing four cores (VI-D/E).

    vCPU *j* of every VM is pinned to core *j*, so each shared core
    runqueue holds one vCPU thread per VM — the stacking layout that makes
    interrupt redirection matter.  vhost workers take the remaining cores.
    The first VM is the tested one; the rest only run their CPU-burn
    scripts, as in the paper.
    """
    tb = Testbed(seed=seed, cost=cost, sched_params=sched_params)
    for v in range(n_vms):
        pinning = [j % shared_cores for j in range(vcpus_per_vm)]
        tb.add_vm(
            f"vm{v}",
            n_vcpus=vcpus_per_vm,
            features=features,
            vcpu_pinning=pinning,
            vhost_core=shared_cores + (v % max(1, tb.machine.cores.__len__() - shared_cores)),
        )
    tb.boot()
    return tb
