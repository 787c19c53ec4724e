#!/usr/bin/env python
"""Quickstart: build all three fault-region models on one fault pattern.

Opens a :class:`repro.api.MeshSession` on a small mesh, injects a clustered
fault pattern, builds the rectangular faulty blocks (FB), the sub-minimum
faulty polygons (FP) and the minimum faulty polygons (MFP) through the
construction registry, prints an ASCII picture of each result (``#`` =
faulty, ``o`` = non-faulty but disabled) and summarises how many non-faulty
nodes each model sacrifices.  A final incremental step adds faults to the
session and rebuilds, serving the untouched components' shapes from the
process-wide shape memos.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import generate_scenario
from repro.api import MeshSession, get_construction


def main() -> None:
    scenario = generate_scenario(
        num_faults=30, width=18, model="clustered", seed=11
    )
    session = MeshSession.from_scenario(scenario)
    print(f"Scenario: {scenario.describe()}\n")

    for key in ("fb", "fp", "mfp"):
        spec = get_construction(key)
        title = f"{spec.description} ({spec.label})"
        construction = session.build(key)
        print(title)
        print("-" * len(title))
        print(construction.grid.render())
        print(
            f"regions: {construction.num_regions}   "
            f"non-faulty nodes disabled: {construction.num_disabled_nonfaulty}   "
            f"rounds: {construction.rounds}"
        )
        print()

    fb = session.build("fb")
    mfp = session.build("mfp")
    if fb.num_disabled_nonfaulty:
        saving = 1 - mfp.num_disabled_nonfaulty / fb.num_disabled_nonfaulty
        print(
            f"The minimum faulty polygons re-enable "
            f"{saving:.0%} of the non-faulty nodes the faulty blocks sacrificed."
        )

    # Sequential fault insertion, as in the paper's simulation: the session
    # adds the new faults to its fault set, and the rebuild finds every
    # untouched component's shape (its hull and rounds) in the process-wide
    # shape memos.
    session.add_faults([(0, 0), (0, 1), (17, 17)])
    updated = session.build("mfp")
    hits = session.cache_info["component_hits"]
    print(
        f"\nAfter 3 more faults: {updated.num_regions} regions, "
        f"{updated.num_disabled_nonfaulty} non-faulty nodes disabled "
        f"({hits} shape-memo hits so far)."
    )


if __name__ == "__main__":
    main()
