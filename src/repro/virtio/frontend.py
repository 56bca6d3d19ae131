"""The guest virtio-net driver: transmit path and NAPI receive.

Receive follows Linux virtio-net: the device ISR schedules NAPI, which
disables the queue's interrupts, polls up to ``napi_weight`` packets in
softirq context, and re-enables interrupts only when the ring drains — the
guest-side interrupt moderation the paper observes ("only about 15k virtual
interrupts are generated", Section VI-C).

Because the ISR schedules NAPI on the vCPU that *received* the interrupt,
ES2's redirection automatically moves receive processing onto an online
vCPU — the mechanism behind the Fig. 6b / Fig. 7 gains.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import VirtioError
from repro.guest.ops import GKick, GWork
from repro.hw.msi import DeliveryMode, MsiMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.os import GuestOS
    from repro.virtio.device import VirtioNetDevice

__all__ = ["VirtioNetDriver"]

#: device ISR cost (ack the interrupt, schedule NAPI)
_ISR_NS = 800


class VirtioNetDriver:
    """Guest-side driver for one virtio-net device."""

    def __init__(self, guest_os: "GuestOS", device: "VirtioNetDevice", irq_vcpu: int = 0):
        if device.driver is not None:
            raise VirtioError(f"{device.name} already has a driver")
        self.os = guest_os
        self.device = device
        self.vm = device.vm
        self.cost = self.vm.machine.cost
        device.driver = self
        #: the guest's interrupt-affinity choice for this queue pair (Linux
        #: default without irqbalance: one effective CPU, here vCPU 0)
        self.vector = self.vm.vector_allocator.allocate(device.name)
        self.msi = MsiMessage(
            vector=self.vector, dest_vcpu=irq_vcpu, mode=DeliveryMode.LOWEST_PRIORITY
        )
        device.msi_route = self.vm.register_msi_route(self.msi)
        #: the TX kick names only the queue, so one op serves every packet
        self._tx_kick = GKick(device.txq)
        guest_os.register_irq_handler(self.vector, self._hardirq_ops)
        self.napi_weight = self.vm.features.napi_weight
        #: packet sink: ``fn(packet, context) -> ops generator`` (netstack)
        self.rx_sink: Optional[Callable] = None
        self._napi_scheduled = False
        self.rx_interrupts = 0
        self.napi_polls = 0
        self.rx_packets = 0

    # ------------------------------------------------------------- transmit
    def xmit_ops(self, packet, tx_cost_ns: int):
        """Ops to transmit one packet: stack work, publish, maybe kick.

        Returns True if the packet was queued; False if the TX ring was full
        (the stack work is still charged — the guest did the preparation
        before discovering the full ring).
        """
        yield GWork(tx_cost_ns)
        txq = self.device.txq
        if txq.is_full:
            return False
        txq.push(packet)
        if packet.ctx is not None:
            sim = self.vm.machine.sim
            sp = sim.obs.spans
            if sp is not None:
                sp.mark(sim.now, packet.ctx, "guest_tx", device=self.device.name)
        yield self._tx_kick
        return True

    def tx_has_space(self) -> bool:
        """True when the TX ring can accept another packet."""
        return not self.device.txq.is_full

    # -------------------------------------------------------------- receive
    def _hardirq_ops(self, context):
        self.rx_interrupts += 1
        yield GWork(_ISR_NS)
        if not self._napi_scheduled:
            self._napi_scheduled = True
            self.device.rxq.suppress_interrupts()
            context.raise_softirq(self._napi_poll_ops(context))

    def _napi_poll_ops(self, context):
        """One NAPI poll session (softirq context)."""
        self.napi_polls += 1
        rxq = self.device.rxq
        pop = rxq.pop
        rx_sink = self.rx_sink
        weight = self.napi_weight
        processed = 0
        while processed < weight:
            pkt = pop()
            if pkt is None:
                break
            processed += 1
            self.rx_packets += 1
            if pkt.ctx is not None:
                sim = self.vm.machine.sim
                sp = sim.obs.spans
                if sp is not None:
                    sp.mark(sim.now, pkt.ctx, "guest_rx", vcpu=context.vcpu.index)
                    sp.irq_unwait(pkt.ctx, self.vm.vm_id, self.vector)
            if rx_sink is not None:
                yield from rx_sink(pkt, context)
            else:
                yield GWork(self.cost.guest_napi_pkt_ns)
        if processed:
            self.device.on_guest_rx_pop()
        if processed >= weight and not rxq.is_empty:
            # Budget exhausted: stay in polling, reschedule ourselves.
            context.raise_softirq(self._napi_poll_ops(context))
            return
        # Ring drained: napi_complete — re-enable interrupts, then re-check
        # for the classic race with the backend adding packets concurrently.
        self._napi_scheduled = False
        rxq.enable_interrupts()
        if not rxq.is_empty:
            self._napi_scheduled = True
            rxq.suppress_interrupts()
            context.raise_softirq(self._napi_poll_ops(context))
