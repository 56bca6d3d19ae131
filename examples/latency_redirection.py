#!/usr/bin/env python3
"""Interrupt redirection and I/O responsiveness (paper Fig. 7 scenario).

Four 4-vCPU VMs time-share four physical cores, so at any instant most
vCPUs are descheduled.  A posted interrupt addressed to an offline vCPU
waits for the scheduler — milliseconds — while ES2's intelligent
redirection steers it to a vCPU that is running *now*.  This example pings
the tested VM under that contention and compares the RTT distribution
across configurations, including two redirection-policy ablations.

Run:  python examples/latency_redirection.py
"""

from repro.experiments.ablations import format_redirect_ablation, redirect_policy_ablation_points
from repro.experiments.fig7 import fig7_points, format_fig7
from repro.parallel import run_sweep
from repro.units import MS, SEC


def main() -> None:
    print("Ping RTT under vCPU multiplexing (paper Fig. 7)")
    print("=" * 60)
    results = run_sweep(fig7_points(seed=3, duration_ns=int(1.5 * SEC), interval_ns=10 * MS))
    print(format_fig7(results))
    print()
    base = results["Baseline"]
    es2 = results["PI+H+R"]
    print(f"Baseline: mean {base.mean_ms():.2f} ms with peaks of {base.max_ms():.1f} ms")
    print(f"ES2:      median {es2.percentile_ms(50) * 1000:.0f} us — the interrupt lands on an online vCPU")
    print()
    print("Redirection-policy ablation")
    print("=" * 60)
    ablation = run_sweep(redirect_policy_ablation_points(seed=3, duration_ns=SEC))
    print(format_redirect_ablation(ablation))


if __name__ == "__main__":
    main()
