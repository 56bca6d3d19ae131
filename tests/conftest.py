"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hw.machine import Machine
from repro.obs import watchdog as _watchdog
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def watchdog_fatal(monkeypatch):
    """Conservation-law violations are hard failures in tests.

    Experiments and benches run the invariant watchdog warn-only; under
    pytest any violation raises ``WatchdogError`` at the window boundary
    that detected it, so the failing invariant is caught in the act.
    """
    monkeypatch.setattr(_watchdog, "FATAL", True)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def machine(sim: Simulator) -> Machine:
    m = Machine(sim, n_cores=4)
    m.start_ticks()
    return m


def make_machine(sim: Simulator, n_cores: int = 4, **kwargs) -> Machine:
    m = Machine(sim, n_cores=n_cores, **kwargs)
    m.start_ticks()
    return m


def fire(entry: list) -> None:
    """Fire a popped queue entry the way the simulator's run loop does:
    clear its callback slot, then call it."""
    fn, entry[2] = entry[2], None
    fn(*entry[3])
