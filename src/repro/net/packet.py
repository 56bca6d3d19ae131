"""The packet: the unit moved along the data path."""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "Packet",
    "ETHERNET_OVERHEAD",
    "TCP_HEADER",
    "UDP_HEADER",
    "ACK_SIZE",
    "MSS",
]

#: Ethernet + IP framing overhead added to payloads on the wire.
ETHERNET_OVERHEAD = 58
TCP_HEADER = 40
UDP_HEADER = 28
#: a bare ACK segment on the wire
ACK_SIZE = 64
#: TCP maximum segment size at the paper's MTU of 1500.
MSS = 1448


class Packet:
    """A network packet.

    ``flow`` identifies the connection/stream; ``kind`` distinguishes the
    roles within a flow (data/ack/req/resp/...); ``dst`` is the address the
    bridges demultiplex on; ``acked`` carries cumulative-ACK information for
    the windowed TCP model; ``created`` timestamps the packet for latency
    measurement.

    ``ctx`` is the observability trace-context id (repro.obs.spans): None
    unless span recording sampled this packet, in which case every stage
    along the event path marks its milestone against it.  It is carried,
    never read, by the data path itself.
    """

    __slots__ = ("flow", "kind", "size", "dst", "seq", "acked", "created", "meta", "ctx")

    def __init__(
        self,
        flow: str,
        kind: str,
        size: int,
        dst: str,
        seq: int = 0,
        acked: int = 0,
        created: int = 0,
        meta: Optional[Any] = None,
        ctx: Optional[int] = None,
    ):
        self.flow = flow
        self.kind = kind
        self.size = size
        self.dst = dst
        self.seq = seq
        self.acked = acked
        self.created = created
        self.meta = meta
        self.ctx = ctx

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Packet {self.flow}/{self.kind} {self.size}B -> {self.dst}>"
