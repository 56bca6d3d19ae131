"""The paper's claims, as one table the flow checks before it renders.

``CLAIMS`` maps each sweep task (:mod:`repro.flow.tasks`) to the claims
EXPERIMENTS.md marks ✅, as ``(name, check(results) -> bool, scope)``.  A
:data:`FULL` claim needs a grid point or window only full mode has; reduced
mode skips it.  A claim whose input is missing fails; it is never skipped.
Known gaps (EXPERIMENTS.md, Fig. 6b) are not gated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.experiments.fig9 import find_knee
from repro.experiments.rack import rack_identical

__all__ = ["BOTH", "CLAIMS", "FULL", "failed_claims"]

BOTH = "both"  #: checked in reduced and full mode
FULL = "full"  #: checked in full mode only

Claim = Tuple[str, Callable[[object], bool], str]


def _share(results, cause) -> float:
    """Percent of Table I's Baseline exits that ``cause`` accounts for."""
    return results["Baseline"].exit_rates.percentages()[cause]


def _cell(results, key: str):
    """A Fig. 5 run by ``"protocol direction config"``."""
    return results[tuple(key.split())]


def _declines_with_quota(results) -> bool:
    """I/O exits fall, within 10%, at every step down the swept quotas."""
    swept = sorted((q for q in results if q is not None), reverse=True)
    rates = [results[q].io_exit_rate for q in swept]
    return len(rates) > 1 and all(lo <= hi * 1.10 for hi, lo in zip(rates, rates[1:]))


def _grows_with_size(results, config) -> bool:
    """Throughput rises at every step up the swept packet sizes."""
    values = [results[(c, s)] for c, s in sorted(results) if c == config]
    return len(values) > 1 and all(a < b for a, b in zip(values, values[1:]))


def _fig4a(tag: str) -> Tuple[Claim, ...]:
    return (
        (f"{tag}: Baseline I/O exits > 40k/s", lambda r: r[None].io_exit_rate > 40_000, BOTH),
        (f"{tag}: I/O exits decline with shrinking quota (10% slack)", _declines_with_quota, BOTH),
        (f"{tag}: quota 8 I/O exits < 2k/s", lambda r: r[8].io_exit_rate < 2_000, FULL),
        (f"{tag}: quota 8 I/O exits < Baseline/20",
         lambda r: r[8].io_exit_rate < r[None].io_exit_rate / 20, FULL),
    )


def _fig6a(size: int, scope: str) -> Tuple[Claim, ...]:
    return (
        (f"PI+H > 1.05x Baseline at {size} B",
         lambda r: r[("PI+H", size)] > r[("Baseline", size)] * 1.05, scope),
        (f"ES2 > 1.30x Baseline at {size} B",
         lambda r: r[("PI+H+R", size)] > r[("Baseline", size)] * 1.30, scope),
    )


CLAIMS: Dict[str, Tuple[Claim, ...]] = {
    "table1": (
        ("interrupt delivery + completion > 25% of Baseline exits",
         lambda r: _share(r, "interrupt-delivery") + _share(r, "interrupt-completion") > 25.0, BOTH),
        ("I/O requests > 35% of Baseline exits", lambda r: _share(r, "io-request") > 35.0, BOTH),
        ("PI has no interrupt-delivery exits", lambda r: r["PI"].exit_rates.interrupt_delivery == 0, BOTH),
        ("PI has no interrupt-completion exits",
         lambda r: r["PI"].exit_rates.interrupt_completion == 0, BOTH),
        ("PI I/O requests > 1.05x Baseline",
         lambda r: r["PI"].exit_rates.io_request > r["Baseline"].exit_rates.io_request * 1.05, BOTH),
        ("PI Others < Baseline Others", lambda r: r["PI"].exit_rates.others < r["Baseline"].exit_rates.others,
         BOTH),
    ),
    "fig4-udp": _fig4a("UDP 256 B"),
    "fig4-udp-1024": _fig4a("UDP 1024 B"),
    "fig4-tcp": (
        ("Baseline I/O exits > 30k/s", lambda r: r[None].io_exit_rate > 30_000, BOTH),
        ("quota 4 I/O exits < 10k/s", lambda r: r[4].io_exit_rate < 10_000, BOTH),
        ("quota 2 I/O exits within 10k/s of quota 4",
         lambda r: abs(r[2].io_exit_rate - r[4].io_exit_rate) < 10_000, FULL),
        ("quota 2 throughput < quota 8 throughput",
         lambda r: r[2].throughput_gbps < r[8].throughput_gbps, FULL),
    ),
    "fig5": (
        ("TCP send Baseline interrupt-delivery exits > 10k/s",
         lambda r: _cell(r, "tcp send Baseline").exit_rates.interrupt_delivery > 10_000, BOTH),
        ("TCP send Baseline exits > 80k/s", lambda r: _cell(r, "tcp send Baseline").total_exit_rate > 80_000,
         BOTH),
        ("TCP send PI+H exits < 10k/s", lambda r: _cell(r, "tcp send PI+H").total_exit_rate < 10_000, BOTH),
        ("TCP send PI+H TIG > 96%", lambda r: _cell(r, "tcp send PI+H").tig > 0.96, BOTH),
        ("UDP send PI+H exits < 2k/s", lambda r: _cell(r, "udp send PI+H").total_exit_rate < 2_000, BOTH),
        ("UDP send PI+H TIG > 99%", lambda r: _cell(r, "udp send PI+H").tig > 0.99, BOTH),
        ("UDP send PI+H TIG > Baseline TIG",
         lambda r: _cell(r, "udp send PI+H").tig > _cell(r, "udp send Baseline").tig, BOTH),
        ("TCP receive PI TIG > Baseline TIG",
         lambda r: _cell(r, "tcp receive PI").tig > _cell(r, "tcp receive Baseline").tig, BOTH),
        ("TCP receive PI has no interrupt-delivery exits",
         lambda r: _cell(r, "tcp receive PI").exit_rates.interrupt_delivery == 0, BOTH),
        ("UDP receive PI has no interrupt-delivery exits",
         lambda r: _cell(r, "udp receive PI").exit_rates.interrupt_delivery == 0, BOTH),
        ("UDP receive Baseline interrupt-delivery exits > 5k/s",
         lambda r: _cell(r, "udp receive Baseline").exit_rates.interrupt_delivery > 5_000, BOTH),
        ("UDP receive Baseline I/O-request exits < 500/s",
         lambda r: _cell(r, "udp receive Baseline").exit_rates.io_request < 500, BOTH),
        ("UDP receive PI TIG > 99%", lambda r: _cell(r, "udp receive PI").tig > 0.99, BOTH),
    ),
    "fig6-send": (
        *_fig6a(512, FULL),
        *_fig6a(1448, BOTH),
        ("Baseline throughput grows with packet size", lambda r: _grows_with_size(r, "Baseline"), BOTH),
        ("ES2 throughput grows with packet size", lambda r: _grows_with_size(r, "PI+H+R"), BOTH),
    ),
    "fig6-receive": (
        ("ES2 > 1.15x Baseline at 1448 B",
         lambda r: r[("PI+H+R", 1448)] > r[("Baseline", 1448)] * 1.15, BOTH),
    ),
    "fig7": (
        ("Baseline and ES2 have > 50 RTT samples",
         lambda r: len(r["Baseline"]) > 50 and len(r["PI+H+R"]) > 50, FULL),
        ("Baseline max RTT > 10 ms", lambda r: r["Baseline"].max_ms() > 10.0, BOTH),
        ("Baseline mean RTT > 3 ms", lambda r: r["Baseline"].mean_ms() > 3.0, BOTH),
        ("ES2 p50 RTT < 0.5 ms", lambda r: r["PI+H+R"].percentile_ms(50) < 0.5, BOTH),
        ("ES2 mean RTT < Baseline/3", lambda r: r["PI+H+R"].mean_ms() < r["Baseline"].mean_ms() / 3, BOTH),
        ("ES2 max RTT < Baseline max", lambda r: r["PI+H+R"].max_ms() < r["Baseline"].max_ms(), BOTH),
    ),
    "fig8-memcached": (
        ("PI > 1.02x Baseline", lambda r: r["PI"] > r["Baseline"] * 1.02, BOTH),
        ("PI+H >= 0.98x PI", lambda r: r["PI+H"] >= r["PI"] * 0.98, BOTH),
        ("PI+H+R > PI+H", lambda r: r["PI+H+R"] > r["PI+H"], BOTH),
        ("PI+H+R > 1.2x Baseline", lambda r: r["PI+H+R"] > r["Baseline"] * 1.2, BOTH),
    ),
    "fig8-apache": (
        ("PI+H+R > 1.5x Baseline", lambda r: r["PI+H+R"] > r["Baseline"] * 1.5, BOTH),
        ("PI+H > 1.02x Baseline", lambda r: r["PI+H"] > r["Baseline"] * 1.02, BOTH),
        ("PI+H+R > PI+H", lambda r: r["PI+H+R"] > r["PI+H"], BOTH),
    ),
    "fig9": (
        ("Baseline knee <= 2200/s", lambda r: find_knee(r, "Baseline") <= 2200, FULL),
        ("ES2 knee >= 2600/s", lambda r: find_knee(r, "PI+H+R") >= 2600, FULL),
        ("ES2 knee > Baseline knee", lambda r: find_knee(r, "PI+H+R") > find_knee(r, "Baseline"), FULL),
        ("ES2 at 800/s < Baseline/2", lambda r: r[("PI+H+R", 800)] < r[("Baseline", 800)] / 2, BOTH),
        ("Baseline at 2600/s > 10x its 800/s time",
         lambda r: r[("Baseline", 2600)] > 10 * r[("Baseline", 800)], FULL),
    ),
    "sriov": (
        ("no config has I/O-request exits",
         lambda r: bool(r) and all(run.io_exit_rate == 0 for run in r.values()), BOTH),
        ("Assigned interrupt exits > 1k/s", lambda r: r["Assigned"].interrupt_exit_rate > 1_000, BOTH),
        ("VT-d PI has no interrupt exits", lambda r: r["VT-d PI"].interrupt_exit_rate == 0, BOTH),
        ("VT-d PI+R ping mean < VT-d PI/2",
         lambda r: r["VT-d PI+R"].ping.mean_ms() < r["VT-d PI"].ping.mean_ms() / 2, BOTH),
        ("VT-d PI TIG >= Assigned TIG", lambda r: r["VT-d PI"].tig >= r["Assigned"].tig, BOTH),
    ),
    "ablation": (
        ("ES2 mean RTT < PI (no redirect)/2",
         lambda r: r["ES2 (full)"].mean_ms() < r["PI (no redirect)"].mean_ms() / 2, BOTH),
        ("ES2 no-prediction mean RTT >= 0.9x ES2",
         lambda r: r["ES2 no-prediction"].mean_ms() >= r["ES2 (full)"].mean_ms() * 0.9, BOTH),
        ("PI+R mean RTT < PI (no redirect)/2",
         lambda r: r["PI+R"].mean_ms() < r["PI (no redirect)"].mean_ms() / 2, BOTH),
    ),
    "coalescing": (
        ("vIC interrupt exits < Baseline/5",
         lambda r: r["Baseline+vIC"].interrupt_exit_rate < r["Baseline"].interrupt_exit_rate / 5, BOTH),
        ("vIC TIG > Baseline TIG", lambda r: r["Baseline+vIC"].tig > r["Baseline"].tig, BOTH),
        ("vIC ping mean > 2x Baseline",
         lambda r: r["Baseline+vIC"].ping_mean_ms > 2 * r["Baseline"].ping_mean_ms, BOTH),
        ("ES2 has no interrupt exits", lambda r: r["ES2"].interrupt_exit_rate == 0, BOTH),
        ("ES2 ping mean < vIC", lambda r: r["ES2"].ping_mean_ms < r["Baseline+vIC"].ping_mean_ms, BOTH),
        ("ES2 TIG >= vIC TIG", lambda r: r["ES2"].tig >= r["Baseline+vIC"].tig, BOTH),
    ),
    "rack": (
        ("every config byte-identical across shard counts",
         lambda r: set(rack_identical(r).values()) == {True}, BOTH),
    ),
}


def _holds(check, results) -> bool:
    try:
        return bool(check(results))
    except LookupError:  # a missing input fails the claim
        return False


def failed_claims(task: str, results, mode: str) -> List[str]:
    """Names of ``task``'s claims that ``results`` break; reduced mode skips :data:`FULL` ones."""
    return [name for name, check, scope in CLAIMS.get(task, ())
            if (scope == BOTH or mode == "full") and not _holds(check, results)]
