"""Central configuration: cost model, feature set, scheduler parameters.

Every timing constant the simulator charges lives in :class:`CostModel` so
experiments can calibrate and ablate without touching mechanism code.  The
default values are calibrated against the paper's testbed-scale numbers
(Section VI): a VM-exit round trip in the low microseconds so that ~130k
exits/s consume ~30% of a core (Table I / Fig. 5a: baseline TCP-send TIG is
70%), and per-packet costs of a few microseconds so a single vCPU sources
roughly 100-200k packets/s (Fig. 4a: ~100k I/O-instruction exits/s for
256-byte UDP).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from repro.errors import ConfigError
from repro.units import MS, US

__all__ = ["CostModel", "FeatureSet", "SchedParams", "default_cost_model"]


@dataclass
class CostModel:
    """Per-operation CPU/latency costs (all integer nanoseconds)."""

    # --- VM exit / entry ---------------------------------------------------
    #: hardware guest->host transition (world switch half)
    vm_exit_transition_ns: int = 600
    #: hardware host->guest transition (VM entry)
    vm_entry_ns: int = 600
    #: software handling of an I/O-instruction exit (decode + eventfd signal)
    exit_handle_io_ns: int = 1_100
    #: software handling of an external-interrupt exit (ack + event request)
    exit_handle_ext_int_ns: int = 800
    #: software handling of an APIC-access exit (EOI emulation)
    exit_handle_apic_ns: int = 900
    #: software handling of residual exit causes (EPT violation etc.)
    exit_handle_other_ns: int = 1_400
    #: software handling of a HLT exit (block the vCPU)
    exit_handle_hlt_ns: int = 900
    #: emulated-APIC interrupt injection work at VM entry
    inject_ns: int = 300

    # --- interrupt hardware --------------------------------------------------
    #: physical IPI flight time (send -> receipt at the remote core)
    ipi_flight_ns: int = 300
    #: hypervisor cost to post a vector into a PI descriptor
    pi_post_ns: int = 150
    #: hardware PIR -> vIRR sync triggered by the PI notification vector
    pi_sync_ns: int = 100
    #: guest-side interrupt dispatch (IDT entry, register save)
    guest_irq_entry_ns: int = 500
    #: the EOI register write itself (excluding any exit it may trigger)
    guest_eoi_ns: int = 50

    # --- paravirtual I/O -----------------------------------------------------
    # Quota dynamics (Fig. 4).  The backend drains faster than the guest
    # produces, so in notification mode every burst ends with the queue
    # empty, notifications re-enabled and the next guest request exiting —
    # the baseline's high I/O-exit rate.  A handler that hits its quota
    # requeues itself and runs again only after ``repoll_delay_ns`` (the
    # I/O thread's scheduling granularity); polling mode therefore
    # self-sustains iff the guest can refill the queue over one handler
    # cycle:  quota * vhost_cost + repoll_delay >= quota * guest_cost,
    # i.e. quota <= repoll_delay / (guest_cost - vhost_cost).  The default
    # margins put that threshold near 11 for UDP and near 4 for TCP —
    # matching the paper's selected quotas (8 and 4).
    #: guest per-packet UDP transmit work (protocol stack + descriptor publish)
    guest_udp_tx_ns: int = 1_650
    #: guest per-packet TCP transmit work (heavier: window/ACK bookkeeping)
    guest_tcp_tx_ns: int = 2_000
    #: extra guest per-byte transmit cost (copy/checksum), scaled by size
    guest_tx_per_byte_ns: float = 1.90
    #: guest per-packet receive work inside NAPI poll (protocol processing
    #: and socket demux only; the copy-to-user happens in task context)
    guest_napi_pkt_ns: int = 1_200
    #: extra guest per-byte receive cost in softirq context
    guest_rx_per_byte_ns: float = 0.30
    #: receiver-task per-wakeup cost (scheduling + socket read path)
    guest_rx_task_ns: int = 800
    #: receiver-task per-byte cost (copy to userspace + app touch)
    guest_rx_task_per_byte_ns: float = 1.20
    #: guest cost of handling a reschedule IPI (scheduler poke)
    guest_resched_ipi_ns: int = 400
    #: guest cost of processing one received ACK (NAPI context)
    guest_ack_rx_ns: int = 900
    #: guest cost of generating and queueing an outgoing ACK
    guest_ack_tx_ns: int = 2_000
    #: the notify (PIO write) instruction itself on the guest side
    guest_kick_ns: int = 150
    #: vhost per-packet transmit work (ring pop + copy toward the NIC)
    vhost_pkt_tx_ns: int = 1_500
    #: vhost per-packet receive work (copy into the guest RX ring)
    vhost_pkt_rx_ns: int = 1_500
    #: extra vhost per-byte cost (data copy), both directions
    vhost_per_byte_ns: float = 1.90
    #: worker-thread wakeup handling (eventfd read, handler activation)
    vhost_wakeup_ns: int = 300
    #: cost to rotate between virtqueue handlers in the I/O thread
    #: (Section V-A: a quota "too low may lead to frequent switches")
    handler_switch_ns: int = 1_200
    #: latency before a self-requeued handler is serviced again: the I/O
    #: thread's round through its other handlers, cond_resched points and
    #: kthread housekeeping.  This is the slack that lets a small quota
    #: sustain polling mode (see the equation above).
    repoll_delay_ns: int = 2_400
    #: ES2 only: deferral between a guest kick and the hybrid handler's
    #: first polling round -- the handler "waits to be scheduled" by ES2's
    #: I/O-thread scheduling layer (Algorithm 1, label 2).  Because EVENT_IDX
    #: kicks are one-shot, the guest keeps publishing exit-free during this
    #: window, accumulating the backlog that lets the first round reach the
    #: quota and polling mode bootstrap.
    poll_entry_delay_ns: int = 18_000
    #: cost of raising a guest interrupt from the backend (irqfd signal)
    irqfd_signal_ns: int = 250

    # --- scheduling ----------------------------------------------------------
    #: host context-switch cost charged when a core switches threads
    ctx_switch_ns: int = 1_000

    # --- noise ----------------------------------------------------------------
    #: relative per-packet cost jitter (cache effects, branch behaviour).
    #: This softens the quota threshold of the hybrid scheme into the
    #: gradual decline of Fig. 4 rather than a hard cliff.
    cost_jitter: float = 0.05

    # --- background ("Others") exits ------------------------------------------
    #: mean guest-busy nanoseconds between residual exits (EPT violations,
    #: pending-interrupt windows ...).  Calibrated to Table I: ~2.1k/s baseline.
    others_exit_mean_interval_ns: int = 480 * US
    #: multiplier applied under PI (APICv removes some residual causes)
    others_pi_factor: float = 0.45

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-physical values."""
        for name, value in self.__dict__.items():
            if isinstance(value, (int, float)) and value < 0:
                raise ConfigError(f"cost {name} must be non-negative, got {value}")
        if self.others_exit_mean_interval_ns == 0:
            raise ConfigError("others_exit_mean_interval_ns must be positive")
        if self.cost_jitter >= 1.0:
            raise ConfigError("cost_jitter must be below 1.0")

    def jittered(self, base_ns: int, rng) -> int:
        """Apply the per-packet cost jitter to a base cost."""
        if self.cost_jitter <= 0.0:
            return base_ns
        factor = 1.0 + self.cost_jitter * (2.0 * rng.random() - 1.0)
        return max(1, int(base_ns * factor))

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every per-operation cost scaled by ``factor``."""
        kwargs = {}
        for name, value in self.__dict__.items():
            if name.startswith("others_"):
                kwargs[name] = value
            elif isinstance(value, int):
                kwargs[name] = int(round(value * factor))
            else:
                kwargs[name] = value * factor
        return CostModel(**kwargs)


@dataclass
class SchedParams:
    """Host scheduler parameters (Linux defaults scaled for an 8-core machine).

    ``policy`` selects the per-core runqueue implementation from the
    :mod:`repro.sched.policy` registry ("cfs", "rr", "mlfq", "deadline").
    The CFS fields keep their historical names; the policy-specific knobs
    below them are ignored by policies that do not use them.
    """

    #: runqueue policy name
    policy: str = "cfs"
    #: targeted preemption latency for CPU-bound tasks
    sched_latency_ns: int = 24 * MS
    #: minimal slice any task gets before preemption
    min_granularity_ns: int = 3 * MS
    #: wakeup preemption granularity
    wakeup_granularity_ns: int = 4 * MS
    #: scheduler tick period
    tick_ns: int = 1 * MS
    #: sleeper bonus cap applied when placing woken tasks (GENTLE_FAIR_SLEEPERS)
    sleeper_bonus_ns: int = 12 * MS

    # --- round-robin ---------------------------------------------------------
    #: fixed timeslice per rotation
    rr_slice_ns: int = 4 * MS
    # --- multilevel feedback queue -------------------------------------------
    #: number of priority levels
    mlfq_levels: int = 3
    #: top-level quantum; doubles per demotion level
    mlfq_quantum_ns: int = 2 * MS
    #: on-CPU time between global priority boosts (starvation guard)
    mlfq_boost_interval_ns: int = 200 * MS
    # --- deadline ------------------------------------------------------------
    #: continuous-runtime throttle while others wait
    dl_runtime_ns: int = 3 * MS
    #: implicit period used to assign deadlines (scaled by 1024/weight)
    dl_period_ns: int = 30 * MS
    # --- adaptive backend-CPU allocation (arXiv 2310.14741) ------------------
    #: enable the periodic vhost/vCPU core re-apportioning controller
    adaptive_alloc: bool = False
    #: controller evaluation period
    adaptive_interval_ns: int = 10 * MS
    #: floor on cores kept for vhost backend threads
    adaptive_min_backend_cores: int = 1
    #: floor on cores kept for vCPU/emulator threads
    adaptive_min_vcpu_cores: int = 1
    #: relative pressure imbalance required before moving a core
    adaptive_hysteresis: float = 0.25

    def validate(self) -> None:
        """Raise ConfigError on invalid values."""
        if self.min_granularity_ns <= 0 or self.sched_latency_ns <= 0:
            raise ConfigError("scheduler granularities must be positive")
        if self.tick_ns <= 0:
            raise ConfigError("tick_ns must be positive")
        if self.rr_slice_ns <= 0:
            raise ConfigError("rr_slice_ns must be positive")
        if self.mlfq_levels < 1:
            raise ConfigError("mlfq_levels must be at least 1")
        if self.mlfq_quantum_ns <= 0 or self.mlfq_boost_interval_ns <= 0:
            raise ConfigError("mlfq quanta must be positive")
        if self.dl_runtime_ns <= 0 or self.dl_period_ns <= 0:
            raise ConfigError("deadline runtime/period must be positive")
        if self.adaptive_interval_ns <= 0:
            raise ConfigError("adaptive_interval_ns must be positive")
        if self.adaptive_min_backend_cores < 1 or self.adaptive_min_vcpu_cores < 1:
            raise ConfigError("adaptive core floors must be at least 1")
        if self.adaptive_hysteresis < 0:
            raise ConfigError("adaptive_hysteresis must be non-negative")
        # The policy name itself is validated against the registry by
        # repro.sched.policy.resolve_policy_name (imported lazily there to
        # keep config free of scheduler imports).


@dataclass
class FeatureSet:
    """Which parts of the ES2 stack are active.

    The four evaluation configurations of Section VI map onto this as:

    ========== ======== ========= ===========
    Paper name ``pi``   ``hybrid`` ``redirect``
    ========== ======== ========= ===========
    Baseline   False    False     False
    PI         True     False     False
    PI+H       True     True      False
    PI+H+R     True     True      True
    ========== ======== ========= ===========
    """

    #: hardware posted-interrupt (vAPIC) delivery and virtualized EOI
    pi: bool = False
    #: ES2 hybrid I/O handling (Algorithm 1) in the vhost backend
    hybrid: bool = False
    #: ES2 intelligent interrupt redirection
    redirect: bool = False
    #: Algorithm-1 quota (the ``poll_quota`` module parameter).  The paper
    #: selects 8 for UDP and 4 for TCP; 8 is the shipping default.
    quota: int = 8
    #: stock-vhost batch limit per handler invocation (notification mode)
    vhost_weight: int = 64
    #: guest NAPI budget per poll
    napi_weight: int = 64
    #: keep redirecting follow-up interrupts to the previously chosen vCPU
    #: until it is descheduled (cache-affinity stickiness; ablation knob)
    redirect_sticky: bool = True
    #: use the ordered offline list to predict the next-online vCPU; when
    #: False, fall back to the affinity target when no vCPU is online
    #: (ablation knob)
    redirect_offline_prediction: bool = True
    #: vIC-style virtual-interrupt coalescing window in ns (Section II-C's
    #: "interrupt moderation" alternative): the backend signals the guest at
    #: most once per window.  0 disables coalescing.  Fewer interrupts mean
    #: fewer Baseline exits -- at the latency cost the paper criticises.
    irq_coalesce_ns: int = 0

    def __post_init__(self) -> None:
        if self.redirect and not self.pi:
            raise ConfigError("intelligent redirection requires posted interrupts")
        if self.quota <= 0:
            raise ConfigError("quota must be positive")
        if self.vhost_weight <= 0 or self.napi_weight <= 0:
            raise ConfigError("weights must be positive")

    @property
    def name(self) -> str:
        """Paper-style configuration name."""
        if not self.pi:
            return "Baseline"
        label = "PI"
        if self.hybrid:
            label += "+H"
        if self.redirect:
            label += "+R"
        return label

    def with_quota(self, quota: int) -> "FeatureSet":
        """Copy of this feature set with a different quota."""
        return replace(self, quota=quota)


def default_cost_model() -> CostModel:
    """A validated copy of the calibrated default cost model."""
    model = CostModel()
    model.validate()
    return model
