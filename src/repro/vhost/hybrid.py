"""ES2 Hybrid I/O Handling — Algorithm 1 of the paper.

The handler starts in notification mode (sleeping until a guest kick).
Once scheduled, it *disables the guest's notification mechanism* and polls
the virtqueue:

* If the workload reaches the ``quota`` before the queue empties, the guest
  is under high I/O load: the handler stays in polling mode — it requeues
  itself behind its sibling handlers (to avoid starving them) **without**
  re-enabling notifications, so subsequent guest I/O requests cost no exits.
* If the queue drains with ``workload < quota``, the load is low: the
  handler re-enables notifications and returns to the exit-based
  notification mode.

The quota is exposed as the ``poll_quota`` module parameter the paper adds
to vhost-net (:class:`~repro.config.FeatureSet` carries it).
"""

from __future__ import annotations

from typing import Dict

from repro.sched.thread import MODE_KERNEL, Consume
from repro.vhost.handler import StockTxHandler

__all__ = ["HybridTxHandler"]


class HybridTxHandler(StockTxHandler):
    """Quota-driven hybrid notification/polling TX handler."""

    COUNTERS = StockTxHandler.COUNTERS + (
        "kick_wakeups", "quota_hits", "drained", "recheck_races", "rounds",
    )

    def __init__(self, worker, device, quota: int):
        super().__init__(worker, device, weight=quota)
        self.quota = quota
        self.kick_wakeups = 0
        #: rounds that hit the quota (stayed in polling mode)
        self.quota_hits = 0
        #: rounds that drained the queue (returned to notification mode)
        self.drained = 0
        #: rounds where the post-enable re-check found the guest had
        #: published concurrently: the handler re-suppresses and stays in
        #: polling mode, so these are neither drains nor mode switches
        self.recheck_races = 0
        #: total handler invocations
        self.rounds = 0
        # Mode-residency bookkeeping (always on; touched only at the rare
        # mode transitions).  ``service_mode_now`` is the Algorithm-1 mode
        # the handler currently sits in; the ``*_ns`` accumulators hold
        # closed intervals and :meth:`mode_residency_ns` adds the open one,
        # so windowed residency fractions are exact at any sample instant.
        self.service_mode_now = "notification"
        self._mode_since = worker.sim.now
        self.notification_ns = 0
        self.polling_ns = 0

    def _set_mode(self, mode: str, now: int) -> None:
        elapsed = now - self._mode_since
        if self.service_mode_now == "polling":
            self.polling_ns += elapsed
        else:
            self.notification_ns += elapsed
        self.service_mode_now = mode
        self._mode_since = now

    def mode_residency_ns(self, now: int) -> Dict[str, int]:
        """Cumulative ns spent per mode, the open interval included.

        The two values sum to ``now - construction_time`` exactly, so the
        per-window residency fractions derived from consecutive readings
        sum to 1 (an invariant the watchdog checks each window).
        """
        open_ns = now - self._mode_since
        notification = self.notification_ns
        polling = self.polling_ns
        if self.service_mode_now == "polling":
            polling += open_ns
        else:
            notification += open_ns
        return {"notification": notification, "polling": polling}

    def on_guest_kick(self) -> None:
        """Entry into polling mode goes through ES2's handler-scheduling
        layer (Algorithm 1, label 2: "waiting to be scheduled").  The
        deferral batches the guest's exit-free follow-up publishes so the
        first polling round sees the real offered load."""
        self.kick_wakeups += 1
        self.worker.activate_after(self, self.cost.poll_entry_delay_ns)

    def run(self, worker):
        """Service the queue for one round (generator; consumes worker CPU)."""
        q = self.queue
        self.rounds += 1
        # Entering with notifications already suppressed means the handler
        # stayed in polling mode across rounds: service is exit-free.
        service_mode = "polling" if q.notify_suppressed else "notification"
        if not q.notify_suppressed:
            # Algorithm 1 lines 8-10: enter polling mode.
            q.suppress_notify()
            self._set_mode("polling", worker.sim.now)
        # Hoisted out of the per-packet loop; the polling rounds here are
        # the hottest handler path in the whole simulation.
        pop = q.pop
        memo = self._base_cost_memo
        rng = self._rng
        cost = self.cost
        jittered = cost.jittered
        transmit = self.device.transmit_to_wire
        quota = self.quota
        workload = 0
        while True:
            pkt = pop()
            if pkt is None:
                break
            if pkt.ctx is not None:
                sim = worker.sim
                sp = sim.obs.spans
                if sp is not None:
                    sp.mark(sim.now, pkt.ctx, "vhost_tx_pop", handler=self.name, mode=service_mode)
            size = pkt.size
            base = memo.get(size)
            if base is None:
                base = cost.vhost_pkt_tx_ns + int(cost.vhost_per_byte_ns * size)
                memo[size] = base
            yield Consume(jittered(base, rng), MODE_KERNEL)
            self.packets += 1
            self.bytes += size
            transmit(pkt)
            workload += 1
            if workload >= quota:
                # Algorithm 1 lines 15-17: high load — keep polling mode but
                # wait for the next turn so siblings are not starved.
                self.quota_hits += 1
                worker.activate_delayed(self)
                return
        # Algorithm 1 line 19: low load — back to notification mode.
        q.enable_notify()
        if not q.is_empty:
            # Standard re-check race: the guest published concurrently.  The
            # handler immediately re-suppresses and keeps polling, so the
            # round counts as a race, not as a drain or a mode switch.
            self.recheck_races += 1
            q.suppress_notify()
            worker.activate(self)
            return
        self.drained += 1
        sim = self.worker.sim
        self._set_mode("notification", sim.now)
        if sim.trace.enabled:
            sim.trace.record(sim.now, "mode-switch", handler=self.name, mode="notification")
