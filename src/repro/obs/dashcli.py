"""``repro dashboard`` — emit the self-contained HTML dashboard.

Two modes:

* ``--input BENCH_<rev>.json`` renders an existing schema-v3 bench
  report (cheap; what CI does after the bench step);
* without ``--input``, the smoke bench sweep runs first (same knobs as
  ``repro bench``) and its report is rendered directly — one command
  from nothing to an opened dashboard.

Like :mod:`repro.obs.bench`, this module imports the experiment layer
and is deliberately not imported from ``repro.obs.__init__``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.dashboard import render_dashboard
from repro.units import MS

__all__ = ["main"]


def main(argv=None) -> int:
    """Entry point of ``python -m repro dashboard``."""
    from repro.obs.bench import (
        BENCH_SCHEMA_VERSION,
        DEFAULT_LATENCY_NS,
        DEFAULT_MEASURE_NS,
        DEFAULT_WARMUP_NS,
        run_bench,
    )

    parser = argparse.ArgumentParser(
        prog="repro dashboard",
        description="Render the windowed-telemetry bench dashboard as one "
                    "self-contained HTML file (no external resources).",
    )
    parser.add_argument("--input", default=None, metavar="BENCH_JSON",
                        help="render an existing BENCH_<rev>.json instead of "
                             "running the bench sweep")
    parser.add_argument("--output", default="dashboard.html",
                        help="output HTML path (default: dashboard.html)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup-ms", type=int, default=DEFAULT_WARMUP_NS // MS)
    parser.add_argument("--measure-ms", type=int, default=DEFAULT_MEASURE_NS // MS)
    parser.add_argument("--latency-ms", type=int, default=DEFAULT_LATENCY_NS // MS)
    args = parser.parse_args(argv)

    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        version = report.get("schema", {}).get("version", 0)
        if version < 3:
            print(f"error: {args.input} is schema v{version}; the dashboard "
                  f"needs v{BENCH_SCHEMA_VERSION} (timeline-bearing) reports "
                  f"— re-run `repro bench`", file=sys.stderr)
            return 2
    else:
        report = run_bench(
            seed=args.seed,
            warmup_ns=args.warmup_ms * MS,
            measure_ns=args.measure_ms * MS,
            latency_duration_ns=args.latency_ms * MS,
        )

    doc = render_dashboard(report)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(doc)
    print(f"wrote {args.output} ({len(doc) // 1024} KiB, self-contained)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
