"""Discrete-event simulation kernel.

A small, deterministic DES core: an event heap keyed by (time, sequence)
whose entries double as cancellable event handles, a simulator clock in
integer nanoseconds, named seeded RNG streams, online statistics, and a
no-op default tracer (install a :class:`repro.obs.TraceBus` to record).
"""

from repro.sim.event import EventQueue
from repro.sim.simulator import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.stats import Histogram, RunningStat
from repro.sim.trace import NullTracer

__all__ = [
    "EventQueue",
    "Simulator",
    "RngRegistry",
    "RunningStat",
    "Histogram",
    "NullTracer",
]
