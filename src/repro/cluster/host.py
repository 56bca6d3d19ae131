"""Per-host models for the sharded rack: ES2 server hosts and load clients.

Each rack host owns a **private** :class:`~repro.sim.simulator.Simulator`
seeded from the spec and its rack position only
(:meth:`~repro.cluster.topology.RackSpec.host_seed`).  That per-host
isolation is what makes the sharded run provably layout-independent: a
host's simulation is a pure function of (spec, host name, injected
message sequence), and the window-barrier protocol delivers the same
message sequence under every shard count.

Server hosts reuse the whole single-machine stack — ``Machine``/KVM/ES2
controller/vhost-net/guest OS — via :class:`~repro.experiments.testbed.
Testbed`, swapping the back-to-back peer link for a
:class:`~repro.cluster.link.CrossShardLink` uplink into the fabric.
Client hosts are the paper's bare-metal traffic generator multiplied: a
closed-loop request fan-out to every server VM in the rack.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.configs import paper_config
from repro.core.controller import Es2Controller
from repro.cluster.link import CrossShardLink
from repro.cluster.topology import RackSpec
from repro.experiments.testbed import Testbed
from repro.hw.machine import Machine
from repro.hw.nic import Nic
from repro.kvm.hypervisor import Kvm
from repro.net.bridge import HostBridge
from repro.net.packet import ETHERNET_OVERHEAD, Packet, UDP_HEADER
from repro.sim.simulator import Simulator
from repro.sim.stats import Histogram
from repro.units import us
from repro.workloads.rpc import GuestServiceFlow, ServerWorkerTask

__all__ = ["RackServerHost", "RackClientHost", "build_host"]


def _simulated_events(sim) -> int:
    """``events_fired`` as a *simulated* metric: net of observer events.

    The timeline sampler is the one observer that schedules events of its
    own (window boundaries).  Rack host readouts are byte-compared across
    telemetry configurations, so they subtract those boundary firings —
    leaving exactly the events the simulated system itself executed.
    """
    fired = sim.events_fired
    tl = sim.obs.timeline
    return fired - tl.boundary_events if tl is not None else fired

#: client-host kernel-stack latency per transmission (matches ExternalHost)
_CLIENT_STACK_NS = us(3)

# Application service models (the Fig.-8 workload constants, fanned out).
# request wire size, per-kind (service_ns, response_bytes):
_MEMCACHED_REQ_WIRE = 160
_MEMCACHED_GET = (us(6), 1100)
_MEMCACHED_SET = (us(9), 80)
_MEMCACHED_GET_RATIO = 0.9
_APACHE_REQ_WIRE = 280
_APACHE_PAGE = (us(18), 8 * 1024)


class RackServerHost(Testbed):
    """One ES2 server host of the rack, on its own simulator.

    The testbed superclass supplies ``add_vm``/``boot``/``enable_timeline``;
    only the construction differs — no external peer, no in-process link,
    the machine NIC transmits into the rack fabric instead.
    """

    def __init__(self, sim: Simulator, name: str, fabric, spec: RackSpec):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.machine = Machine(sim, n_cores=spec.host_cores, name=name)
        self.kvm = Kvm(self.machine)
        self.es2 = Es2Controller(self.kvm)
        self.bridge = HostBridge(self.machine)
        self.uplink = CrossShardLink(
            sim, self.machine.nic, fabric, name,
            rate_gbps=spec.link_gbps, propagation_ns=spec.propagation_ns,
        )
        self.machine.start_ticks()
        self.vm_setups = []
        self.adaptive = None
        self.workers: List[ServerWorkerTask] = []
        self._build_vms(fabric)

    def _build_vms(self, fabric) -> None:
        spec = self.spec
        features = paper_config(spec.config, quota=spec.quota)
        # vCPUs stack on the first half of the cores (the multiplexed
        # layout that makes redirection matter); vhost workers take the rest.
        shared = max(1, spec.host_cores // 2)
        backend_cores = max(1, spec.host_cores - shared)
        req_wire = _MEMCACHED_REQ_WIRE if spec.application == "memcached" else _APACHE_REQ_WIRE
        for v, vm_name in enumerate(spec.vm_names(self.name)):
            pinning = [j % shared for j in range(spec.vcpus_per_vm)]
            setup = self.add_vm(
                vm_name,
                n_vcpus=spec.vcpus_per_vm,
                features=features,
                vcpu_pinning=pinning,
                vhost_core=shared + (v % backend_cores),
                guest_timer=spec.guest_timer,
                cpu_burn=spec.cpu_burn,
            )
            vm_workers = []
            for i in range(spec.vcpus_per_vm):
                worker = ServerWorkerTask(f"{vm_name}-w{i}", setup.netstack,
                                          reply_to=self.name)
                setup.guest_os.add_task(worker, i)
                vm_workers.append(worker)
            self.workers.extend(vm_workers)
            # One service flow per (client host, connection), each answering
            # to the client host it belongs to, dealt round-robin over the
            # VM's workers the way multi-threaded servers accept().
            conn_index = 0
            for client in spec.client_hosts:
                for fid in spec.flow_ids(client, vm_name):
                    GuestServiceFlow(setup.netstack, fid,
                                     vm_workers[conn_index % len(vm_workers)],
                                     reply_to=client)
                    conn_index += 1
        self.boot()
        fabric.register_host(self.name, self.sim, self.machine.nic.receive)

    # ------------------------------------------------------------- readout
    def result(self) -> Dict[str, object]:
        """This host's simulated readout (wall-clock free, layout-invariant)."""
        nic = self.machine.nic
        return {
            "kind": "server",
            "events_fired": _simulated_events(self.sim),
            "requests_served": sum(w.served for w in self.workers),
            "nic": {"tx_packets": nic.tx_packets, "tx_bytes": nic.tx_bytes,
                    "rx_packets": nic.rx_packets, "rx_bytes": nic.rx_bytes},
            "unroutable": self.bridge.unroutable,
            "ingress_injected": self.sim.ingress.injected,
            "ingress_min_margin_ns": self.sim.ingress.min_margin_ns,
            "counters": self.sim.obs.counters.flat(),
        }


class _ClientFlow:
    """One closed-loop connection from a client host to a server VM."""

    __slots__ = ("flow_id", "vm")

    def __init__(self, flow_id: str, vm: str):
        self.flow_id = flow_id
        self.vm = vm


class RackClientHost:
    """A bare-metal load-generator host fanning requests across the rack."""

    def __init__(self, sim: Simulator, name: str, fabric, spec: RackSpec):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.nic = Nic(sim, f"{name}-nic")
        self.nic.set_rx_handler(self._on_rx)
        self.uplink = CrossShardLink(
            sim, self.nic, fabric, name,
            rate_gbps=spec.link_gbps, propagation_ns=spec.propagation_ns,
        )
        self.latency = Histogram()
        self.completed = 0
        self.unroutable = 0
        self._rng = sim.rng.stream("rack-client")
        self._flows: Dict[str, _ClientFlow] = {}
        self._next_conn = 0
        self._mark_ops = 0
        self._mark_time = 0
        for vm in spec.all_vms:
            for fid in spec.flow_ids(name, vm):
                self._flows[fid] = _ClientFlow(fid, vm)
        fabric.register_host(name, sim, self.nic.receive)

    # ------------------------------------------------------------- traffic
    def start(self) -> None:
        """Fill every connection's request window (closed-loop start)."""
        for fid in self._flows:
            for _ in range(self.spec.outstanding_per_conn):
                self._send_request(fid)

    def _make_request(self):
        if self.spec.application == "memcached":
            if self._rng.random() < _MEMCACHED_GET_RATIO:
                service_ns, response_bytes = _MEMCACHED_GET
            else:
                service_ns, response_bytes = _MEMCACHED_SET
            return _MEMCACHED_REQ_WIRE, service_ns, response_bytes
        service_ns, response_bytes = _APACHE_PAGE
        return _APACHE_REQ_WIRE, service_ns, response_bytes

    def _send_request(self, flow_id: str) -> None:
        flow = self._flows[flow_id]
        payload_wire, service_ns, response_bytes = self._make_request()
        conn = self._next_conn
        self._next_conn += 1
        # Span origin at the creation instant (== ``created``), so a
        # stitched trace's total is *exactly* the latency sample this
        # host records when the final response segment lands.
        sp = self.sim.obs.spans
        ctx = (sp.new_context(self.sim.now, self.spec.application,
                              flow=flow_id, host=self.name)
               if sp is not None else None)
        pkt = Packet(
            flow_id,
            "req",
            payload_wire + UDP_HEADER + ETHERNET_OVERHEAD,
            dst=flow.vm,
            seq=conn,
            created=self.sim.now,
            meta=(service_ns, response_bytes),
            ctx=ctx,
        )
        self.sim.schedule(_CLIENT_STACK_NS, self.nic.send, pkt)

    def _on_rx(self, packet) -> None:
        flow = self._flows.get(packet.flow)
        if flow is None:
            self.unroutable += 1
            return
        conn, final = packet.meta
        created = packet.created
        ctx = packet.ctx
        if not final:
            return
        if ctx is not None:
            sp = self.sim.obs.spans
            if sp is not None:
                sp.mark(self.sim.now, ctx, "delivered", host=self.name)
        self.completed += 1
        self.latency.add(self.sim.now - created)
        self._send_request(flow.flow_id)

    # ----------------------------------------------------------- measuring
    def mark(self) -> None:
        """Restart the measurement window (op counts and latency) at now."""
        self._mark_ops = self.completed
        self._mark_time = self.sim.now
        self.latency = Histogram()

    def result(self) -> Dict[str, object]:
        """This host's simulated readout (wall-clock free, layout-invariant)."""
        elapsed = self.sim.now - self._mark_time
        ops = self.completed - self._mark_ops
        lat = self.latency
        return {
            "kind": "client",
            "events_fired": _simulated_events(self.sim),
            "ops_completed": ops,
            "ops_per_sec": ops * 1e9 / elapsed if elapsed > 0 else 0.0,
            "latency_us": {
                "samples": lat.count,
                "mean": lat.mean / 1e3 if lat.count else 0.0,
                "p50": lat.percentile(50) / 1e3 if lat.count else 0.0,
                "p99": lat.percentile(99) / 1e3 if lat.count else 0.0,
                "max": (lat.max or 0.0) / 1e3 if lat.count else 0.0,
            },
            "unroutable": self.unroutable,
            "ingress_injected": self.sim.ingress.injected,
            "ingress_min_margin_ns": self.sim.ingress.min_margin_ns,
        }


def build_host(name: str, fabric, spec: RackSpec):
    """Construct one rack host (server or client) on a fresh simulator."""
    sim = Simulator(seed=spec.host_seed(name))
    if name in spec.server_hosts:
        return RackServerHost(sim, name, fabric, spec)
    return RackClientHost(sim, name, fabric, spec)
