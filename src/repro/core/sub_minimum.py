"""The sub-minimum faulty polygon model (FP) -- Wu's IPDPS 2001 baseline.

The construction has two phases run over the whole network:

1. labelling scheme 1 grows the faults into rectangular faulty blocks;
2. labelling scheme 2 shrinks each block by re-enabling unsafe non-faulty
   nodes that have two or more enabled neighbours.

The resulting regions are orthogonal convex polygons that cover all faults
of their block, but a region built from a block containing several separate
fault clusters may still be larger than necessary -- hence *sub-minimum*.
The paper's contribution (:mod:`repro.core.mfp`) removes that gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


from repro.core.labelling import (
    apply_labelling_scheme_1,
    apply_labelling_scheme_2,
    faults_to_mask,
)
from repro.core.regions import FaultRegion, extract_regions_and_index, mean_region_size
from repro.faults.scenario import FaultScenario
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Topology
from repro.types import Coord, FaultRegionModel


@dataclass
class SubMinimumConstruction:
    """Result of the sub-minimum faulty polygon construction."""

    grid: StatusGrid
    #: Final fault regions; a lazy :class:`~repro.core.regions.RegionList`,
    #: built on first access to a region.
    regions: Sequence[FaultRegion]
    rounds_scheme1: int
    rounds_scheme2: int
    model: FaultRegionModel = FaultRegionModel.SUB_MINIMUM_FAULTY_POLYGON
    #: Cell -> region-index grid (``-1`` outside every region).
    region_index: "np.ndarray | None" = field(default=None, compare=False, repr=False)

    @property
    def rounds(self) -> int:
        """Total rounds of neighbour information exchange (Figure 11).

        The FP model pays the scheme-1 rounds (identical to FB) plus the
        extra scheme-2 rounds, which is why the paper reports FP needing
        *more* rounds than FB.
        """
        return self.rounds_scheme1 + self.rounds_scheme2

    @property
    def num_disabled_nonfaulty(self) -> int:
        """Non-faulty nodes disabled by the polygons (Figure 9 quantity)."""
        return self.grid.num_disabled_nonfaulty

    @property
    def mean_region_size(self) -> float:
        """Average polygon size in nodes (Figure 10 quantity)."""
        return mean_region_size(self.grid, self.regions)

    @property
    def polygons(self) -> Sequence[FaultRegion]:
        """Alias for :attr:`regions` using the paper's terminology."""
        return self.regions

    def all_orthogonal_convex(self) -> bool:
        """Whether every polygon satisfies Definition 1 (sanity invariant)."""
        return all(region.is_orthogonal_convex for region in self.regions)


def build_sub_minimum_polygons(
    faults: Sequence[Coord],
    topology: Optional[Topology] = None,
    width: int = 100,
    height: Optional[int] = None,
) -> SubMinimumConstruction:
    """Construct sub-minimum faulty polygons from a fault set."""
    if topology is None:
        topology = Mesh2D(width, height if height is not None else width)
    fault_mask = faults_to_mask(faults, topology.width, topology.height)
    scheme1 = apply_labelling_scheme_1(fault_mask, topology)
    scheme2 = apply_labelling_scheme_2(fault_mask, scheme1.labels, topology)

    grid = StatusGrid(topology, faults)
    grid.unsafe = scheme1.labels.copy()
    grid.disabled = scheme2.labels.copy()

    regions, region_index = extract_regions_and_index(grid.disabled, grid.faulty)
    return SubMinimumConstruction(
        grid=grid,
        regions=regions,
        rounds_scheme1=scheme1.rounds,
        rounds_scheme2=scheme2.rounds,
        region_index=region_index,
    )


def build_sub_minimum_for_scenario(scenario: FaultScenario) -> SubMinimumConstruction:
    """Construct sub-minimum faulty polygons for a :class:`FaultScenario`."""
    return build_sub_minimum_polygons(scenario.faults, topology=scenario.topology())
