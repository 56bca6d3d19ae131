"""LinkModel refactor: the serializer accounting both link kinds share."""

from __future__ import annotations

import pytest

from repro.cluster.link import CrossShardLink, decode_packet, encode_packet
from repro.errors import HardwareError
from repro.hw.nic import Link, LinkModel, Nic
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.units import transmit_time_ns, us


def _pair(sim):
    a, b = Nic(sim, "a"), Nic(sim, "b")
    received = []
    a.set_rx_handler(lambda p: received.append(("a", sim.now, p)))
    b.set_rx_handler(lambda p: received.append(("b", sim.now, p)))
    return a, b, received


def test_serializer_busy_until_math():
    """Back-to-back sends queue on the wire; the busy-until chain is exact."""
    sim = Simulator(seed=1)
    link = LinkModel(sim, rate_gbps=40.0, propagation_ns=us(1))
    nic = Nic(sim, "tx")
    link._attach_end(nic)
    size = 1500
    tx = transmit_time_ns(size, 40.0)
    # Idle wire: serialization starts now.
    first = link.serialize(nic, size)
    assert first == sim.now + tx
    # Busy wire: the second packet waits for the first to finish.
    second = link.serialize(nic, size)
    assert second == first + tx
    assert link.queued_delay(nic) == second - sim.now
    # Once the clock passes the backlog, the wire is idle again.
    sim.at(second + 10, lambda: None)
    sim.run_until(second + 10)
    assert link.queued_delay(nic) == 0
    third = link.serialize(nic, size)
    assert third == sim.now + tx


def test_serializer_directions_independent():
    """Each attached end has its own busy-until: full duplex, no coupling."""
    sim = Simulator(seed=1)
    a, b, _ = _pair(sim)
    link = Link(sim, a, b, rate_gbps=40.0, propagation_ns=us(1))
    size = 1500
    tx = transmit_time_ns(size, 40.0)
    assert link.serialize(a, size) == tx
    assert link.serialize(a, size) == 2 * tx
    # b's direction is untouched by a's backlog.
    assert link.serialize(b, size) == tx


def test_link_delivery_uses_shared_serializer():
    """In-process Link: arrival = serialize finish + propagation."""
    sim = Simulator(seed=1)
    a, b, received = _pair(sim)
    link = Link(sim, a, b, rate_gbps=40.0, propagation_ns=us(1))
    pkt = Packet("f", "data", 1500, "b")
    tx = transmit_time_ns(1500, 40.0)
    a.send(pkt)
    a.send(Packet("f", "data", 1500, "b"))
    sim.run_until(us(10))
    assert [(end, t) for end, t, _ in received] == [
        ("b", tx + us(1)),
        ("b", 2 * tx + us(1)),
    ]


def test_cross_shard_link_stamps_like_local_link():
    """CrossShardLink emits the stamp a local Link would deliver at."""

    class FakeFabric:
        def __init__(self):
            self.emissions = []

        def emit(self, src_host, arrival_ns, packet):
            self.emissions.append((src_host, arrival_ns, packet))

    sim = Simulator(seed=1)
    nic = Nic(sim, "up")
    fabric = FakeFabric()
    link = CrossShardLink(sim, nic, fabric, "h0", rate_gbps=40.0,
                          propagation_ns=us(50))
    tx = transmit_time_ns(1500, 40.0)
    nic.send(Packet("f", "data", 1500, "peer.vm0"))
    nic.send(Packet("f", "data", 1500, "peer.vm0"))
    stamps = [arrival for _, arrival, _ in fabric.emissions]
    assert stamps == [tx + us(50), 2 * tx + us(50)]
    # The stamp is never below now + propagation: the conservative floor.
    assert all(s >= sim.now + us(50) for s in stamps)


def test_link_model_validation():
    sim = Simulator(seed=1)
    with pytest.raises(HardwareError):
        LinkModel(sim, rate_gbps=0.0)
    with pytest.raises(HardwareError):
        LinkModel(sim, propagation_ns=-1)


def test_packet_codec_round_trip():
    """encode/decode preserves every simulated field *and* the trace ctx.

    The ctx crossing the wire is what lets the rack stitcher join the
    sending and receiving hosts' span marks into one end-to-end trace
    (DESIGN.md §18); ctx ids are plain host-scoped strings, so carrying
    them never drags an object graph across the process boundary.
    """
    pkt = Packet("flow", "req", 222, "h1.vm0", seq=7, acked=3,
                 created=123456, meta=(us(6), 1100))
    pkt.ctx = "c0#17"
    clone = decode_packet(encode_packet(pkt))
    for field in ("flow", "kind", "size", "dst", "seq", "acked", "created",
                  "meta", "ctx"):
        assert getattr(clone, field) == getattr(pkt, field)
    assert clone is not pkt
