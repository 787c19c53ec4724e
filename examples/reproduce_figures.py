#!/usr/bin/env python
"""Regenerate the paper's evaluation figures (reduced-scale preview).

Produces the data series behind Figures 9, 10 and 11 for both fault
distributions and prints them as text tables.  By default the sweep uses a
reduced number of trials and fault counts so it finishes in well under a
minute; pass ``--full`` to run the full paper-scale sweep (100x100 mesh,
100..800 faults) as done by the benchmark harness.

Run with::

    python examples/reproduce_figures.py          # quick preview
    python examples/reproduce_figures.py --full   # paper-scale sweep
"""

from __future__ import annotations

import argparse

from repro.api import SweepExecutor
from repro.sim.figures import (
    DEFAULT_FAULT_COUNTS,
    figure9_series,
    figure10_series,
    figure11_series,
    format_series_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full paper-scale sweep (slower)",
    )
    parser.add_argument("--trials", type=int, default=None, help="trials per point")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep trials (default: serial)",
    )
    args = parser.parse_args()

    if args.full:
        fault_counts = DEFAULT_FAULT_COUNTS
        width = 100
        trials = args.trials or 3
    else:
        fault_counts = (50, 100, 200, 300)
        width = 50
        trials = args.trials or 2

    for distribution in ("random", "clustered"):
        print(f"\n### {distribution} fault distribution "
              f"({width}x{width} mesh, {trials} trials per point) ###\n")
        points = SweepExecutor(workers=args.workers).run(
            fault_counts,
            trials,
            width=width,
            distribution=distribution,
            include_rounds=True,
        )
        print(format_series_table(
            figure9_series(distribution=distribution, points=points)))
        print()
        print(format_series_table(
            figure10_series(distribution=distribution, points=points)))
        print()
        print(format_series_table(
            figure11_series(distribution=distribution, points=points)))
        print()


if __name__ == "__main__":
    main()
