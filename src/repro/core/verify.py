"""Verification utilities for fault-region constructions.

These checks encode, as executable predicates, the properties the paper
proves or assumes about each fault-region model:

* every injected fault is covered by some region;
* regions are pairwise disjoint;
* faulty-block regions are filled rectangles;
* faulty-polygon regions are orthogonal convex (Definition 1);
* a minimum-polygon construction is *minimal*: every region equals the
  union of the minimum orthogonal convex hulls of the fault components it
  covers, so no region can be replaced by polygons containing fewer
  non-faulty nodes (the paper's Theorem in Section 3.1).

They are used by the test suite, but they are also part of the public API
so downstream users can validate constructions produced by their own
variants of the algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set

from repro.core.components import find_components
from repro.core.reference import merge_fill
from repro.core.regions import FaultRegion
from repro.geometry.orthogonal import orthogonal_convex_hull
from repro.types import Coord


@dataclass
class VerificationReport:
    """Outcome of verifying one construction."""

    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every check passed."""
        return not self.failures

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        """Register one check result."""
        self.checks.append(name)
        if not passed:
            message = name if not detail else f"{name}: {detail}"
            self.failures.append(message)

    def summary(self) -> str:
        """Human-readable one-line summary."""
        status = "OK" if self.ok else "FAILED"
        return (
            f"{status}: {len(self.checks) - len(self.failures)}/{len(self.checks)} "
            f"checks passed"
            + ("" if self.ok else f" ({'; '.join(self.failures)})")
        )


def _region_list(construction_or_regions) -> List[FaultRegion]:
    if hasattr(construction_or_regions, "regions"):
        return list(construction_or_regions.regions)
    return list(construction_or_regions)


def verify_coverage(
    regions: Sequence[FaultRegion] | object, faults: Iterable[Coord]
) -> VerificationReport:
    """Check that the regions cover every fault and nothing overlaps."""
    regions = _region_list(regions)
    report = VerificationReport()
    fault_set = set(faults)
    covered: Set[Coord] = set()
    overlap = False
    for region in regions:
        if covered & region.nodes:
            overlap = True
        covered |= region.nodes
    report.record("all faults covered", fault_set <= covered,
                  f"missing {sorted(fault_set - covered)[:5]}")
    report.record("regions are disjoint", not overlap)
    report.record(
        "regions contain only faults and disabled nodes",
        all(region.faulty_nodes <= fault_set for region in regions),
    )
    return report


def verify_faulty_blocks(construction, faults: Iterable[Coord]) -> VerificationReport:
    """Check the rectangular faulty block invariants (FB model)."""
    regions = _region_list(construction)
    report = verify_coverage(regions, faults)
    report.record(
        "every block is a filled rectangle",
        all(region.is_rectangle for region in regions),
    )
    return report


def verify_orthogonal_convexity(construction, faults: Iterable[Coord]) -> VerificationReport:
    """Check that every region is an orthogonal convex polygon (FP/MFP)."""
    regions = _region_list(construction)
    report = verify_coverage(regions, faults)
    not_convex = [r.index for r in regions if not r.is_orthogonal_convex]
    report.record(
        "every region is orthogonal convex", not not_convex,
        f"regions {not_convex[:5]}",
    )
    return report


def verify_minimality(construction, faults: Iterable[Coord]) -> VerificationReport:
    """Check the minimum faulty polygon optimality property.

    The disabled set of a minimum construction must equal the union of the
    faults and the minimum orthogonal convex hulls of the fault components
    -- closed under the merged-region convexity fill the assembles apply
    when independently built polygons touch or overlap.  No orthogonal
    convex covering can use fewer non-faulty nodes (the hull of each
    component is contained in every orthogonal convex superset of that
    component).
    """
    regions = _region_list(construction)
    report = verify_orthogonal_convexity(regions, faults)
    fault_set = set(faults)
    expected: Set[Coord] = set(fault_set)
    for component in find_components(fault_set):
        expected |= orthogonal_convex_hull(component.nodes)
    expected = merge_fill(expected)
    actual: Set[Coord] = set()
    for region in regions:
        actual |= region.nodes
    report.record(
        "disabled set equals the union of component hulls",
        actual == expected,
        f"extra {sorted(actual - expected)[:5]}, missing {sorted(expected - actual)[:5]}",
    )
    return report


def compare_constructions_report(
    fb_construction, fp_construction, mfp_construction, faults: Iterable[Coord]
) -> VerificationReport:
    """Cross-model consistency: the FB ⊇ FP ⊇ MFP containment chain."""
    report = VerificationReport()
    fb = fb_construction.grid.disabled_set()
    fp = fp_construction.grid.disabled_set()
    mfp = mfp_construction.grid.disabled_set()
    fault_set = set(faults)
    report.record(
        "faults in every model",
        fault_set <= mfp and fault_set <= fp and fault_set <= fb,
    )
    report.record("FP never disables a node FB keeps", fp <= fb)
    report.record("MFP never disables a node FP keeps", mfp <= fp)
    report.record(
        "MFP disables the fewest non-faulty nodes",
        len(mfp - fault_set) <= len(fp - fault_set) <= len(fb - fault_set),
    )
    return report
