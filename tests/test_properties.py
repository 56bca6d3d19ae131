"""Property-based tests on core invariants (hypothesis)."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kvm.apic_emul import EmulatedLapic
from repro.kvm.vapic import VApicPage
from repro.sched.thread import Consume, CpuMode, Thread
from repro.sim.event import _PRUNE_THRESHOLD, EventQueue
from repro.sim.simulator import Simulator
from repro.units import MS, SEC
from tests.conftest import fire, make_machine


def _noop() -> None:
    pass


#: One step of a queue script: ``(op, a, b)``.  ``a`` picks a delay, a live
#: or fired event or a cancellation stride; ``b`` offsets a ``pop_until``
#: limit from a pending time by -1, 0 or +1 ns.
_QUEUE_STEP = st.tuples(
    st.sampled_from(("push", "push_soon", "burst", "cancel", "mass_cancel",
                     "cancel_fired", "peek", "pop", "pop_until")),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-1, max_value=1),
)


class TestEventQueueProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_pops_in_nondecreasing_time_order(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while (entry := q.pop()) is not None:
            popped.append(entry[0])
        assert popped == sorted(times)

    @given(
        st.lists(st.tuples(st.integers(0, 100), st.booleans()), max_size=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_cancellation_never_fires(self, spec):
        q = EventQueue()
        fired = []
        entries = []
        for i, (t, cancel) in enumerate(spec):
            entries.append((q.push(t, fired.append, (i,)), cancel))
        for entry, cancel in entries:
            if cancel:
                assert q.cancel(entry) is True
        while (entry := q.pop()) is not None:
            fire(entry)
        cancelled = {i for i, (_, c) in enumerate(spec) if c}
        assert set(fired) == set(range(len(spec))) - cancelled

    @given(st.lists(_QUEUE_STEP, max_size=80))
    # Same-instant ties: heap pushes at ``now`` and FIFO-lane pushes merge.
    @example([("push", 0, 0), ("push_soon", 0, 0), ("push", 0, 0),
              ("push_soon", 0, 0), ("pop_until", 0, 0), ("pop", 0, 0)])
    # A burst, then enough cancellations to pass the prune threshold.
    @example([("burst", 3, 0), ("mass_cancel", 0, 0), ("pop_until", 5, 1),
              ("pop_until", 0, -1), ("peek", 0, 0), ("pop", 0, 0)])
    # Cancelling a fired entry, then pushing: the live count stays exact.
    @example([("push", 1, 0), ("push", 2, 0), ("pop", 0, 0), ("cancel_fired", 0, 0),
              ("push_soon", 0, 0), ("cancel_fired", 0, 0), ("pop", 0, 0)])
    @settings(max_examples=200, deadline=None)
    def test_queue_matches_reference_model(self, script):
        """Every step agrees with a sorted list of live ``(time, seq)`` pairs.

        ``push_soon`` only ever runs at the current instant (its contract),
        and ``pop_until`` limits fall at and one ns around pending times.
        Popped entries are fired the way the run loop fires them; a fired
        entry stays its own handle, and cancelling it changes nothing.
        """
        q = EventQueue()
        live = {}  # (time, seq) -> entry, the reference model
        fired = []  # every popped entry, held like a caller's handle
        handles = {}  # id -> every entry handed out, held so ids stay unique
        now = 0

        def add(entry):
            assert id(entry) not in handles  # a held handle is never reused
            handles[id(entry)] = entry
            live[(entry[0], entry[1])] = entry

        for op, a, b in script:
            if op == "push":
                add(q.push(now + a, _noop))
            elif op == "push_soon":
                add(q.push_soon(now, _noop))
            elif op == "burst":
                # Heap and FIFO entries sharing a handful of instants.
                for i in range(2 * _PRUNE_THRESHOLD):
                    if i % 3 == 0:
                        add(q.push_soon(now, _noop))
                    else:
                        add(q.push(now + (a + i) % 5, _noop))
            elif op == "cancel":
                if live:
                    assert q.cancel(live.pop(sorted(live)[a % len(live)])) is True
            elif op == "mass_cancel":
                # Keep every stride-th live event, cancel the rest.
                stride = a % 3 + 3
                for i, key in enumerate(sorted(live)):
                    if i % stride:
                        assert q.cancel(live.pop(key)) is True
            elif op == "cancel_fired":
                if fired:
                    assert q.cancel(fired[a % len(fired)]) is False
            elif op == "peek":
                assert q.peek_time() == (min(live)[0] if live else None)
            else:
                pending = sorted(live)
                if op == "pop":
                    limit = float("inf")
                    got = q.pop()
                else:
                    anchor = pending[a % len(pending)][0] if pending else now
                    limit = anchor + b
                    got = q.pop_until(limit)
                if pending and pending[0][0] <= limit:
                    assert got is live.pop(pending[0])
                    fire(got)
                    fired.append(got)
                    now = got[0]
                else:
                    assert got is None
            assert len(q) == len(live)

        drained = []
        while (entry := q.pop()) is not None:
            drained.append((entry[0], entry[1]))
        assert drained == sorted(live)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=100), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_simulator_clock_monotone(self, delays, seed):
        sim = Simulator(seed=seed)
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run_until(2_000)
        assert seen == sorted(seen)
        assert sim.now == 2_000


class TestApicProperties:
    @given(st.lists(st.integers(0x10, 0xFF), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_emulated_apic_never_loses_or_duplicates(self, vectors):
        apic = EmulatedLapic()
        injected = []
        for v in vectors:
            apic.set_irq(v)
            while apic.can_inject():
                injected.append(apic.inject())
                apic.eoi()
        while apic.can_inject():
            injected.append(apic.inject())
            apic.eoi()
        # Every distinct pending vector is eventually delivered exactly as
        # many times as it was distinct-pending (coalescing allowed).
        assert set(injected) == set(vectors)
        assert apic.irr == set() and apic.isr == set()

    @given(st.lists(st.integers(0x10, 0xFF), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_vapic_pir_sync_preserves_vectors(self, vectors):
        vapic = VApicPage()
        for v in vectors:
            vapic.pi_desc.post(v)
        vapic.sync_pir_to_virr()
        delivered = []
        while vapic.has_deliverable():
            delivered.append(vapic.deliver())
            vapic.eoi()
        assert set(delivered) == set(vectors)
        # Priority order: delivered from highest to lowest.
        assert delivered == sorted(delivered, reverse=True)


class BusyThread(Thread):
    def __init__(self, machine, name, nice=0):
        super().__init__(machine, name, nice=nice, pinned_core=0)

    def body(self):
        while True:
            yield Consume(MS, CpuMode.KERNEL)


class TestCfsProperties:
    @given(st.integers(2, 6), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_equal_weights_near_equal_shares(self, n_threads, seed):
        sim = Simulator(seed=seed)
        m = make_machine(sim, n_cores=1)
        threads = [BusyThread(m, f"t{i}") for i in range(n_threads)]
        for t in threads:
            m.spawn(t)
        sim.run_until(SEC)
        execs = [t.sum_exec for t in threads]
        assert sum(execs) > 0.95 * SEC
        lo, hi = min(execs), max(execs)
        # CFS bounds unfairness by roughly one scheduling period.
        assert hi - lo < 2 * m.sched_params.sched_latency_ns

    @given(st.integers(1, 5))
    @settings(max_examples=8, deadline=None)
    def test_time_conservation_on_core(self, n_threads):
        sim = Simulator(seed=1)
        m = make_machine(sim, n_cores=1)
        threads = [BusyThread(m, f"t{i}") for i in range(n_threads)]
        for t in threads:
            m.spawn(t)
        sim.run_until(300 * MS)
        total = sum(t.sum_exec for t in threads)
        switch = m.cores[0].mode_time[CpuMode.SWITCH]
        # Busy core: thread time + switch overhead accounts for ~all time.
        assert total + switch <= 300 * MS
        assert total + switch > 0.99 * 300 * MS
