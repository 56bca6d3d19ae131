#!/usr/bin/env python3
"""Tuning the ``poll_quota`` parameter for a workload mix (paper Section VI-B).

The quota is the knob of ES2's hybrid I/O handling: large values drain the
queue before the quota is reached, falling back to exit-based notification;
very small values waste CPU on handler switching.  This example sweeps the
quota for UDP and TCP streams — exactly the experiment behind Fig. 4 — and
prints the value each protocol should use (the paper selects 8 and 4).

Run:  python examples/quota_tuning.py
"""

from repro.experiments.fig4 import fig4_points, format_fig4
from repro.parallel import run_sweep
from repro.units import MS

WARMUP = 150 * MS
MEASURE = 350 * MS


def pick_quota(points) -> int:
    """Largest quota whose I/O-exit rate is near the best achievable."""
    candidates = [p for p in points.values() if p.quota is not None]
    best = min(p.io_exit_rate for p in candidates)
    threshold = max(2 * best, 1_000.0)
    eligible = [p.quota for p in candidates if p.io_exit_rate <= threshold]
    return max(eligible) if eligible else min(p.quota for p in candidates)


def main() -> None:
    for protocol in ("udp", "tcp"):
        points = run_sweep(fig4_points(protocol, seed=1, warmup_ns=WARMUP, measure_ns=MEASURE))
        print(format_fig4(points, protocol))
        print(f"--> selected quota for {protocol.upper()}: {pick_quota(points)}")
        print()


if __name__ == "__main__":
    main()
