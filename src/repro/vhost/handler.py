"""Per-virtqueue handlers: stock vhost TX and the RX path.

The stock TX handler reproduces vhost-net's ``handle_tx`` structure:
notifications are suppressed only *while the handler is actively
servicing* the queue; once the ring drains, notifications are re-enabled
(with the standard re-check race) and the handler goes back to sleep.
Under a guest that produces slower than the backend drains — which is what
VM exits do to the guest — this yields roughly one I/O-instruction exit
per transmission burst, the behaviour Table I quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sched.thread import MODE_KERNEL, Consume

if TYPE_CHECKING:  # pragma: no cover
    from repro.vhost.worker import VhostWorker
    from repro.virtio.device import VirtioNetDevice

__all__ = ["QueueHandler", "StockTxHandler", "RxHandler"]


class QueueHandler:
    """Base class for virtqueue handlers owned by a vhost worker."""

    #: counters declared to the simulation-wide registry (subclasses extend)
    COUNTERS = ("packets", "bytes")

    def __init__(self, worker: "VhostWorker", device: "VirtioNetDevice", name: str):
        self.worker = worker
        self.device = device
        self.machine = worker.machine
        self.cost = worker.machine.cost
        self.name = name
        self.packets = 0
        self.bytes = 0
        self._rng = worker.sim.rng.stream(f"vhost:{name}")
        #: per-packet-size base-cost memo; streams repeat a handful of sizes,
        #: so the per-byte multiply-and-truncate is paid once per size
        self._base_cost_memo = {}
        # Values are read lazily, so registering before subclass fields are
        # assigned is fine; the class attribute names the full counter set.
        worker.sim.obs.counters.register(f"vhost.{name}", self, self.COUNTERS)

    def run(self, worker):  # pragma: no cover - interface
        """Service the queue for one round (generator; consumes worker CPU)."""
        raise NotImplementedError
        yield

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class StockTxHandler(QueueHandler):
    """vhost-net ``handle_tx``: notification mode with in-service suppression."""

    COUNTERS = QueueHandler.COUNTERS + ("weight_exhausted",)

    def __init__(self, worker, device, weight: int):
        super().__init__(worker, device, f"{device.name}/tx")
        self.weight = weight
        self.queue = device.txq
        self.queue.backend = self
        #: rounds ended by weight exhaustion (queue still busy)
        self.weight_exhausted = 0

    def on_guest_kick(self) -> None:
        """The guest kicked this queue: schedule a service round."""
        self.worker.activate(self)

    def run(self, worker):
        """Service the queue for one round (generator; consumes worker CPU)."""
        q = self.queue
        q.suppress_notify()
        # Hoisted out of the per-packet loop: these lookups dominate the
        # handler's Python-side cost on long bursts.
        pop = q.pop
        memo = self._base_cost_memo
        rng = self._rng
        cost = self.cost
        jittered = cost.jittered
        transmit = self.device.transmit_to_wire
        processed = 0
        while processed < self.weight:
            pkt = pop()
            if pkt is None:
                # Drained: back to notification mode (+ the re-check race).
                q.enable_notify()
                if q.is_empty:
                    return
                q.suppress_notify()
                continue
            if pkt.ctx is not None:
                sim = worker.sim
                sp = sim.obs.spans
                if sp is not None:
                    sp.mark(sim.now, pkt.ctx, "vhost_tx_pop", handler=self.name, mode="notification")
            size = pkt.size
            base = memo.get(size)
            if base is None:
                base = cost.vhost_pkt_tx_ns + int(cost.vhost_per_byte_ns * size)
                memo[size] = base
            yield Consume(jittered(base, rng), MODE_KERNEL)
            self.packets += 1
            self.bytes += size
            transmit(pkt)
        # Weight exhausted with work remaining: stay suppressed, requeue.
        self.weight_exhausted += 1
        worker.activate_delayed(self)


class RxHandler(QueueHandler):
    """vhost-net ``handle_rx``: tap backlog → guest RX ring → irqfd signal.

    Entirely host-internal: activation comes from wire traffic, not guest
    kicks, so this path never produces I/O-instruction exits (RX-ring
    refill notifications are abstracted away; see DESIGN.md).
    """

    COUNTERS = QueueHandler.COUNTERS + ("ring_stalls", "signals", "coalesced_signals")

    def __init__(self, worker, device, weight: int, coalesce_ns: int = 0):
        super().__init__(worker, device, f"{device.name}/rx")
        self.weight = weight
        self.queue = device.rxq
        self.ring_stalls = 0
        self.signals = 0
        #: vIC-style coalescing window (0 = signal per service round)
        self.coalesce_ns = coalesce_ns
        self._last_signal = -(10**18)
        self._deferred_signal = False
        self.coalesced_signals = 0

    def on_wire_traffic(self) -> None:
        """Wire traffic arrived for this queue: schedule a service round."""
        self.worker.activate(self)

    def _signal_guest(self) -> None:
        """Raise the guest interrupt, honouring the coalescing window."""
        now = self.worker.sim.now
        if self.coalesce_ns <= 0 or now - self._last_signal >= self.coalesce_ns:
            self._last_signal = now
            self.signals += 1
            self.device.raise_rx_interrupt()
            return
        self.coalesced_signals += 1
        if not self._deferred_signal:
            self._deferred_signal = True
            fire_at = self._last_signal + self.coalesce_ns
            self.worker.sim.schedule(max(0, fire_at - now), self._deferred_fire)

    def _deferred_fire(self) -> None:
        self._deferred_signal = False
        if not self.queue.is_empty:
            self._last_signal = self.worker.sim.now
            self.signals += 1
            self.device.raise_rx_interrupt()

    def run(self, worker):
        """Service the queue for one round (generator; consumes worker CPU)."""
        device = self.device
        rxq = self.queue
        backlog = device.backlog
        rxq_push = rxq.push
        memo = self._base_cost_memo
        rng = self._rng
        cost = self.cost
        jittered = cost.jittered
        weight = self.weight
        processed = 0
        while processed < weight:
            if not backlog:
                break
            if rxq.is_full:
                # No free RX descriptors: the guest must drain first; we are
                # re-activated from the NAPI side (on_guest_rx_pop).
                self.ring_stalls += 1
                break
            pkt = backlog.popleft()
            if pkt.ctx is not None:
                sim = worker.sim
                sp = sim.obs.spans
                if sp is not None:
                    sp.mark(sim.now, pkt.ctx, "vhost_rx_pop", handler=self.name)
            size = pkt.size
            base = memo.get(size)
            if base is None:
                base = cost.vhost_pkt_rx_ns + int(cost.vhost_per_byte_ns * size)
                memo[size] = base
            yield Consume(jittered(base, rng), MODE_KERNEL)
            rxq_push(pkt)
            if pkt.ctx is not None:
                sim = worker.sim
                sp = sim.obs.spans
                if sp is not None:
                    sp.mark(sim.now, pkt.ctx, "rx_ring_push", handler=self.name)
                    if device.driver is not None:
                        # The packet now waits for the RX interrupt sub-path
                        # (irqfd -> route -> inject), which is not
                        # packet-granular; register as a waiter so each irq
                        # milestone is marked against this request too.
                        sp.irq_wait(pkt.ctx, device.vm.vm_id, device.driver.vector)
            processed += 1
            self.packets += 1
            self.bytes += pkt.size
        if processed:
            # Signal once per service round (or per coalescing window);
            # guest-side NAPI suppression decides whether it becomes a
            # virtual interrupt.
            yield Consume(self.cost.irqfd_signal_ns, MODE_KERNEL)
            self._signal_guest()
        if device.backlog and not rxq.is_full:
            worker.activate_delayed(self)
