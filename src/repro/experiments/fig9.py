"""Fig. 9 — Httperf average connection time vs. request rate.

Paper anchors: all configurations are comparable below ~1,600 requests/s;
the Baseline's average connection time grows rapidly past 1,800/s (accept
backlog overflow → SYN retransmissions); full ES2 stays low until the rate
reaches ~2,600/s.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import SEC
from repro.workloads.httperf import HttperfWorkload

__all__ = ["fig9_points", "format_fig9", "DEFAULT_RATES", "FIG9_CONFIGS", "find_knee",
           "FLOW_REDUCED"]

#: Reduced-mode overrides for the DAG runner: three rates, short duration.
FLOW_REDUCED = dict(rates=(800, 1800, 2600), duration_ns=SEC // 4)

DEFAULT_RATES = (800, 1400, 1800, 2200, 2600, 3000)
FIG9_CONFIGS = ("Baseline", "PI", "PI+H", "PI+H+R")


def _fig9_cell(name: str, rate: int, seed: int, duration_ns: int) -> float:
    """Average connection time of one (config, rate) cell on a fresh testbed."""
    tb = multiplexed_testbed(paper_config(name, quota=4), seed=seed)
    wl = HttperfWorkload(tb, tb.tested, rate_per_sec=rate)
    wl.start()
    tb.run_for(duration_ns)
    return wl.avg_connect_time_ms()


def fig9_points(
    rates: Sequence[int] = DEFAULT_RATES,
    configs: Sequence[str] = FIG9_CONFIGS,
    seed: int = 3,
    duration_ns: int = 2 * SEC,
) -> List[SweepPoint]:
    """One average connection time (ms) per (config, rate) cell, keyed so."""
    return [
        SweepPoint(
            key=(name, rate),
            fn=_fig9_cell,
            kwargs=dict(name=name, rate=rate, seed=seed, duration_ns=duration_ns),
        )
        for name in configs
        for rate in rates
    ]


def find_knee(results: Dict[Tuple[str, int], float], config: str, factor: float = 3.0) -> int:
    """The lowest rate from which connection times *stay* above ``factor`` x
    the config's lowest-rate value (sustained exceedance, so a single noisy
    spike below the knee is not mistaken for it); returns the max rate +1
    step if none."""
    rates = sorted(r for (c, r) in results if c == config)
    base = results[(config, rates[0])]
    for i, rate in enumerate(rates):
        if all(results[(config, r)] > factor * base for r in rates[i:]):
            return rate
    return rates[-1] + (rates[-1] - rates[-2] if len(rates) > 1 else 1)


def format_fig9(results: Dict[Tuple[str, int], float]) -> str:
    """Render the results as a paper-style table, plot and per-config knees."""
    from repro.metrics.ascii_plot import line_plot

    rates = sorted({r for (_, r) in results})
    configs = [c for c in FIG9_CONFIGS if any(k[0] == c for k in results)]
    rows = []
    for name in configs:
        rows.append([name] + [f"{results.get((name, r), float('nan')):.2f}" for r in rates])
    table = format_table(
        ["Config"] + [f"{r}/s" for r in rates],
        rows,
        title="Fig. 9: Httperf average connection time (ms) vs request rate",
    )
    series = {name: [results[(name, r)] for r in rates] for name in configs}
    plot = line_plot(series, height=8, y_label="avg connect ms", x_labels=[str(r) for r in rates])
    knees = [f"knee[{cfg}] = {find_knee(results, cfg)}/s" for cfg in sorted({c for (c, _) in results})]
    return "\n".join([table + "\n\n" + plot, *knees])
