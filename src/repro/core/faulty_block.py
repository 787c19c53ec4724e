"""The rectangular faulty block model (FB) -- the classic baseline.

A faulty block is built by running labelling scheme 1 on the whole network:
connected groups of unsafe nodes form disjoint rectangles.  Every unsafe
node (faulty or not) is disabled, i.e. excluded from routing.  This is the
most commonly used fault model and the reference point both baselines and
the paper's contribution are measured against in Figures 9-11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


from repro.core.raster import FaultRaster
from repro.core.regions import FaultRegion, extract_regions_and_index, mean_region_size
from repro.faults.scenario import FaultScenario
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Topology
from repro.types import Coord, FaultRegionModel


@dataclass
class FaultyBlockConstruction:
    """Result of constructing rectangular faulty blocks for one fault set."""

    grid: StatusGrid
    #: Final fault regions; a lazy :class:`~repro.core.regions.LazyList`,
    #: built on first access to a region.
    regions: Sequence[FaultRegion]
    rounds: int
    model: FaultRegionModel = FaultRegionModel.FAULTY_BLOCK
    #: Cell -> region-index grid (``-1`` outside every region).
    region_index: "np.ndarray | None" = field(default=None, compare=False, repr=False)

    @property
    def num_disabled_nonfaulty(self) -> int:
        """Non-faulty nodes disabled by the blocks (Figure 9 quantity)."""
        return self.grid.num_disabled_nonfaulty

    @property
    def mean_region_size(self) -> float:
        """Average block size in nodes (Figure 10 quantity)."""
        return mean_region_size(self.grid, self.regions)

    @property
    def blocks(self) -> Sequence[FaultRegion]:
        """Alias for :attr:`regions` using the paper's terminology."""
        return self.regions

    def all_rectangular(self) -> bool:
        """Whether every block is a filled rectangle (sanity invariant)."""
        return all(region.is_rectangle for region in self.regions)


def build_faulty_blocks(
    faults: Sequence[Coord],
    topology: Optional[Topology] = None,
    width: int = 100,
    height: Optional[int] = None,
) -> FaultyBlockConstruction:
    """Construct rectangular faulty blocks from a fault set.

    Either pass an explicit *topology* or a *width*/*height* pair (a square
    ``width x width`` mesh by default, matching the paper's setup).  The
    labelling comes from the :class:`~repro.core.raster.FaultRaster` of
    the faults, so it runs once however many constructions share a raster.
    """
    if topology is None:
        topology = Mesh2D(width, height if height is not None else width)
    raster = FaultRaster.of(faults, topology)
    scheme1 = raster.scheme1

    grid = raster.status_grid()
    grid.unsafe = scheme1.labels.copy()
    # Under the faulty block model every unsafe node is disabled.
    grid.disabled = scheme1.labels.copy()

    regions, region_index = extract_regions_and_index(grid.disabled, grid.faulty)
    return FaultyBlockConstruction(
        grid=grid, regions=regions, rounds=scheme1.rounds, region_index=region_index
    )


def build_faulty_blocks_for_scenario(scenario: FaultScenario) -> FaultyBlockConstruction:
    """Construct faulty blocks for a generated :class:`FaultScenario`."""
    return build_faulty_blocks(scenario.faults, topology=scenario.topology())
