"""Cross-shard link: the rack fabric seen from one transmitting host.

A :class:`CrossShardLink` is the uplink of one host into the rack
fabric.  It shares the serializer busy-until accounting with the
in-process :class:`~repro.hw.nic.Link` through their common
:class:`~repro.hw.nic.LinkModel` base, but instead of scheduling the
peer's receive in the same simulator it *emits a timestamped message*:
the packet's field tuple stamped with its arrival time, handed to the
shard fabric for delivery at the next window barrier.

Messages are plain tuples of primitives so they pickle cheaply across
process boundaries, and they are re-materialized as fresh
:class:`~repro.net.packet.Packet` objects on the receiving host — object
identity never crosses a shard.  The observability trace context
(``packet.ctx``) *does* cross: rack recorders allocate host-scoped
string ids (``"c0#17"``), so a context is globally unique and the
coordinator can stitch each host's marks into one end-to-end PathTrace
(:mod:`repro.obs.rack`).  The uplink marks ``xshard_tx`` when it
finishes serializing an instrumented packet onto the fabric; the
receiving fabric marks ``xshard_rx`` at the stamped arrival instant.
"""

from __future__ import annotations

from typing import Tuple

from repro.hw.nic import LinkModel, Nic
from repro.net.packet import Packet

__all__ = ["CrossShardLink", "encode_packet", "decode_packet", "message_sort_key"]

#: wire form of one cross-shard delivery:
#: (arrival_ns, dst_host, src_host, src_seq, packet-field tuple)
Message = Tuple[int, str, str, int, tuple]


def encode_packet(packet) -> tuple:
    """The picklable field tuple of one packet (trace context included)."""
    return (packet.flow, packet.kind, packet.size, packet.dst,
            packet.seq, packet.acked, packet.created, packet.meta,
            packet.ctx)


def decode_packet(fields: tuple) -> Packet:
    """Materialize a fresh local packet from a field tuple (in
    :class:`~repro.net.packet.Packet`'s parameter order)."""
    return Packet(*fields)


def message_sort_key(msg: Message) -> tuple:
    """Global deterministic delivery order: (destination host, arrival,
    source host, send seq).

    Sorting every barrier batch with this key makes injection order — and
    therefore event sequence-number allocation on the receiving host —
    independent of which shards the endpoints live on.  Grouping by
    destination first changes nothing a host sees: each host's messages
    are still injected in (arrival, source host, send seq) order.
    """
    arrival_ns, dst_host, src_host, src_seq, _fields = msg
    return (dst_host, arrival_ns, src_host, src_seq)


class CrossShardLink(LinkModel):
    """One host's uplink into the rack fabric.

    The transmit side is exactly a :class:`~repro.hw.nic.Link` direction
    (store-and-forward serialization at the line rate, then propagation);
    the receive side is the destination host's ingress queue, reached via
    the window-barrier message exchange.
    """

    def __init__(self, sim, nic: Nic, fabric, src_host: str,
                 rate_gbps: float = 40.0, propagation_ns: int = 1000):
        super().__init__(sim, rate_gbps=rate_gbps, propagation_ns=propagation_ns)
        self.fabric = fabric
        self.src_host = src_host
        self.nic = nic
        self._attach_end(nic)

    def transmit(self, src: Nic, packet) -> None:
        """Serialize ``packet`` onto the fabric; stamped delivery elsewhere."""
        finish = self.serialize(src, packet.size)
        if packet.ctx is not None:
            sp = self.sim.obs.spans
            if sp is not None:
                sp.mark(finish, packet.ctx, "xshard_tx", src=self.src_host)
        self.fabric.emit(self.src_host, finish + self.propagation_ns, packet)
