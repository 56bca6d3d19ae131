"""Tests for the per-subsystem counter registry (repro.obs.counters)."""

from __future__ import annotations

from repro.core.configs import paper_config
from repro.experiments.testbed import single_vcpu_testbed
from repro.obs import CounterRegistry
from repro.units import MS
from repro.workloads.netperf import NetperfUdpSend


class _Widget:
    def __init__(self):
        self.hits = 0
        self.misses = 0


# ------------------------------------------------------------------ unit


def test_register_snapshot_flat_get():
    reg = CounterRegistry()
    w = _Widget()
    w.hits, w.misses = 3, 1
    reg.register("cache.l1", w, ("hits", "misses"))
    assert "cache.l1" in reg
    assert len(reg) == 1
    assert reg.snapshot() == {"cache.l1": {"hits": 3, "misses": 1}}
    assert reg.flat() == {"cache.l1.hits": 3, "cache.l1.misses": 1}
    assert reg.snapshot()["cache.l1"]["hits"] == 3


def test_attr_values_read_lazily():
    # Registration may precede field assignment (subclasses register in
    # the base __init__ before their own counters exist yet).
    reg = CounterRegistry()
    w = _Widget.__new__(_Widget)
    reg.register("w", w, ("hits",))
    w.hits = 42
    assert reg.snapshot()["w"]["hits"] == 42


def test_reset_zeroes_attr_groups():
    reg = CounterRegistry()
    w = _Widget()
    w.hits = 7
    reg.register("w", w, ("hits", "misses"))
    reg.reset()
    assert w.hits == 0
    assert reg.flat() == {"w.hits": 0, "w.misses": 0}


def test_register_fn_and_reset():
    reg = CounterRegistry()
    state = {"n": 5}
    reg.register_fn("fn.group", lambda: {"n": state["n"]},
                    reset_fn=lambda: state.update(n=0))
    assert reg.snapshot()["fn.group"]["n"] == 5
    reg.reset()
    assert reg.snapshot()["fn.group"]["n"] == 0


def test_register_fn_without_reset_is_noop_on_reset():
    reg = CounterRegistry()
    reg.register_fn("ro", lambda: {"n": 9})
    reg.reset()  # must not raise
    assert reg.snapshot()["ro"]["n"] == 9


def test_reregistration_replaces_group():
    reg = CounterRegistry()
    a, b = _Widget(), _Widget()
    a.hits, b.hits = 1, 2
    reg.register("w", a, ("hits",))
    reg.register("w", b, ("hits",))
    assert len(reg) == 1
    assert reg.snapshot()["w"]["hits"] == 2


def test_unregister_and_prefix():
    reg = CounterRegistry()
    for path in ("vm.a.x", "vm.a.y", "vm.b.x"):
        reg.register(path, _Widget(), ("hits",))
    assert reg.unregister_prefix("vm.a.") == 2
    assert reg.unregister_prefix("vm.a.") == 0
    assert list(reg.snapshot()) == ["vm.b.x"]


# ----------------------------------------------------------- integration


def test_testbed_registers_subsystem_counters():
    tb = single_vcpu_testbed(paper_config("PI", quota=4), seed=1)
    paths = set(tb.sim.obs.counters.snapshot())
    assert any(p.startswith("vhost.") for p in paths)
    assert any(p.startswith("virtio.") for p in paths)
    assert "kvm.exits" in paths
    assert "kvm.vm.tested.vcpu0" in paths
    assert "es2.tracker" in paths
    assert "kvm.router" in paths


def test_counters_accumulate_and_reset_between_runs():
    tb = single_vcpu_testbed(paper_config("Baseline"), seed=1)
    wl = NetperfUdpSend(tb, tb.tested, n_streams=1, payload_size=256)
    assert wl is not None
    tb.run_for(20 * MS)
    flat = tb.sim.obs.counters.flat()
    assert all(isinstance(v, int) for v in flat.values())
    assert sum(flat.values()) > 0
    tb.sim.obs.counters.reset()
    assert sum(tb.sim.obs.counters.flat().values()) == 0
    # A second window accumulates fresh counts after the reset.
    tb.run_for(20 * MS)
    assert sum(tb.sim.obs.counters.flat().values()) > 0


def test_vm_teardown_unregisters_vm_counters():
    tb = single_vcpu_testbed(paper_config("Baseline"), seed=1)
    assert any(p.startswith("kvm.vm.tested.") for p in tb.sim.obs.counters.snapshot())
    tb.kvm.destroy_vm(tb.tested.vm)
    assert not any(p.startswith("kvm.vm.tested.") for p in tb.sim.obs.counters.snapshot())
