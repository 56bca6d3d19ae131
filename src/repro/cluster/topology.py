"""Declarative rack topology: hosts x VMs x flows, and how it shards.

A :class:`RackSpec` is a frozen, picklable value object — the single
source of truth both the coordinator and every shard worker build from,
so a shard reconstructs exactly the hosts it owns without any object
graph crossing the process boundary.

Two host kinds make up a rack:

* **server hosts** (``h0`` .. ``h<n-1>``): full ES2 machines — cores,
  KVM, vhost-net backends, guest VMs running a memcached/apache-style
  service (the paper's tested server, multiplied);
* **client hosts** (``c0`` .. ``c<m-1>``): bare-metal load generators
  (the paper's traffic-generator server, multiplied), each keeping a
  closed-loop fan-out of requests to *every* server VM in the rack.

Determinism hinges on three derived quantities all parties agree on:
per-host seeds (:meth:`RackSpec.host_seed`), the address map routing any
packet destination to its owning host (:meth:`RackSpec.address_map`),
and the conservative lookahead (:meth:`RackSpec.lookahead_ns`) that sets
the synchronization window.  All three are pure functions of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ClusterError
from repro.units import us

__all__ = ["RackSpec", "RackTelemetry", "reduced_rack_spec"]

#: applications the rack service model knows how to run
RACK_APPLICATIONS = ("memcached", "apache")


@dataclass(frozen=True)
class RackTelemetry:
    """Observability configuration for a sharded rack run.

    Deliberately *not* part of :class:`RackSpec`: the spec describes the
    simulated system (and is embedded in reports/digests), telemetry
    describes how we watch it.  Everything here is observer-only — the
    coordinator's ``simulated`` block is byte-identical with any
    telemetry configuration, including none (asserted by the
    determinism guard's rack leg).  The sampling settings are constants
    of :mod:`repro.cluster.shard`.
    """

    #: per-request span contexts on every host (host-scoped ids)
    spans: bool = True
    #: windowed counter/gauge sampling + invariant watchdog (server hosts)
    timeline: bool = True


@dataclass(frozen=True)
class RackSpec:
    """One rack-scale scenario, fully described by plain values."""

    n_hosts: int = 4
    n_client_hosts: int = 2
    vms_per_host: int = 2
    vcpus_per_vm: int = 1
    host_cores: int = 4
    config: str = "PI+H+R"
    quota: Optional[int] = 8
    application: str = "memcached"
    #: connections per (client host, server VM) pair
    connections_per_vm: int = 1
    outstanding_per_conn: int = 2
    link_gbps: float = 40.0
    #: one-way rack-fabric latency (ToR switch + NIC pipelines); this is
    #: also the conservative lookahead, hence the synchronization window
    propagation_ns: int = us(50)
    cpu_burn: bool = False
    guest_timer: bool = True
    seed: int = 1

    # ------------------------------------------------------------ validity
    def validate(self) -> "RackSpec":
        """Raise :class:`ClusterError` on an unbuildable topology."""
        if self.n_hosts < 1:
            raise ClusterError("a rack needs at least one server host")
        if self.n_client_hosts < 1:
            raise ClusterError("a rack needs at least one client host")
        if self.vms_per_host < 1 or self.vcpus_per_vm < 1:
            raise ClusterError("server hosts need at least one VM with one vCPU")
        if self.host_cores < 2:
            raise ClusterError("server hosts need >= 2 cores (vCPUs + vhost)")
        if self.application not in RACK_APPLICATIONS:
            raise ClusterError(
                f"unknown rack application {self.application!r} "
                f"(expected one of {RACK_APPLICATIONS})"
            )
        if self.connections_per_vm < 1 or self.outstanding_per_conn < 1:
            raise ClusterError("flows need >= 1 connection with >= 1 outstanding request")
        if self.propagation_ns <= 0:
            raise ClusterError(
                "cross-host propagation must be positive: it is the "
                "conservative lookahead, and a zero window cannot advance"
            )
        return self

    def override(self, **kwargs) -> "RackSpec":
        """A copy with the given fields replaced (validated)."""
        return replace(self, **kwargs).validate()

    # ------------------------------------------------------------- naming
    @property
    def server_hosts(self) -> Tuple[str, ...]:
        """Server host names, rack order."""
        return tuple(f"h{i}" for i in range(self.n_hosts))

    @property
    def client_hosts(self) -> Tuple[str, ...]:
        """Client (load-generator) host names, rack order."""
        return tuple(f"c{i}" for i in range(self.n_client_hosts))

    @property
    def hosts(self) -> Tuple[str, ...]:
        """Every host in canonical rack order (servers then clients)."""
        return self.server_hosts + self.client_hosts

    def vm_names(self, host: str) -> Tuple[str, ...]:
        """The VM addresses living on one server host."""
        return tuple(f"{host}.vm{j}" for j in range(self.vms_per_host))

    @property
    def all_vms(self) -> Tuple[str, ...]:
        """Every server VM address in the rack, canonical order."""
        return tuple(vm for host in self.server_hosts for vm in self.vm_names(host))

    def flow_ids(self, client: str, vm: str) -> Tuple[str, ...]:
        """The connection flow ids between one client host and one VM."""
        return tuple(f"{client}/{vm}/conn{k}" for k in range(self.connections_per_vm))

    # ------------------------------------------------------------- routing
    def address_map(self) -> Dict[str, str]:
        """Packet destination address -> owning host name.

        VM addresses route to their server host; a client host's own name
        is the response address its flows advertise.
        """
        addr_to_host = {client: client for client in self.client_hosts}
        for host in self.server_hosts:
            for vm in self.vm_names(host):
                addr_to_host[vm] = host
        return addr_to_host

    # ----------------------------------------------------- synchronization
    @property
    def lookahead_ns(self) -> int:
        """Conservative lookahead: the minimum cross-host link latency.

        Every cross-host delivery arrives at least ``serialization +
        propagation`` after its send instant, so ``propagation_ns`` (the
        rack fabric's one-way latency, uniform across links) lower-bounds
        the time any message spends in flight — no shard advancing at
        most this far beyond a barrier can receive a message in its past.
        """
        return self.propagation_ns

    # --------------------------------------------------------- determinism
    def host_seed(self, host: str) -> int:
        """The master seed of one host's simulator.

        Derived from the spec seed and the host's rack position only, so
        a host's entire simulation is independent of how the rack is
        sharded.
        """
        try:
            index = self.hosts.index(host)
        except ValueError:
            raise ClusterError(f"unknown host {host!r}") from None
        return self.seed * 1_000_003 + index

    # -------------------------------------------------------- partitioning
    def partition(self, n_shards: int) -> List[Tuple[str, ...]]:
        """Deal hosts round-robin into ``n_shards`` shard assignments.

        Round-robin interleaves server and client hosts across shards,
        which balances the (heavier) server hosts when shards < hosts.
        """
        hosts = self.hosts
        if not 1 <= n_shards <= len(hosts):
            raise ClusterError(
                f"cannot split {len(hosts)} hosts into {n_shards} shards "
                "(need 1 <= shards <= hosts)"
            )
        return [tuple(hosts[s::n_shards]) for s in range(n_shards)]


def reduced_rack_spec(**overrides) -> RackSpec:
    """The CI-sized rack: small enough for smoke tests, big enough to shard."""
    spec = RackSpec(
        n_hosts=4,
        n_client_hosts=4,
        vms_per_host=2,
        vcpus_per_vm=1,
        host_cores=4,
        connections_per_vm=1,
        outstanding_per_conn=2,
    )
    return spec.override(**overrides) if overrides else spec.validate()
