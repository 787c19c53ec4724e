"""The distributed minimum faulty polygon construction (DMFP).

This module ties the pieces of Section 3.2 together for a whole network:

1. every non-faulty node determines its boundary status with respect to the
   adjacent faulty components (one round of neighbour exchange);
2. for every component, the elected initiator's message circles the
   boundary ring, building the boundary array and identifying the
   notification end nodes (one ring hop per round);
3. every notification end node pushes the disabled status along its concave
   row/column section, detouring around blocking polygons (one hop per
   round).

Components are processed concurrently, so the network-wide number of rounds
is the boundary-determination round plus the maximum, over components, of
the ring rounds plus the notification rounds.  This is the DMFP curve of
the paper's Figure 11.  The resulting node statuses are identical to the
centralized construction (the integration tests assert this), because both
disable exactly the concave row/column sections of every component.

A component's outcome -- its rounds and the nodes its notifications
disable -- depends on its shape alone unless a fault of another component
lies on one of its concave-section cells.  The ring walk and the
notification plan run on the unbounded grid and read only the component's
own nodes.  Other faults matter only through section cells: a
notification starts on its section (a ring-detected end node is itself a
section cell) or next to it (an undetected section's end node is the
adjacent member node), so with no faulty section cell every hop is to an
adjacent cell and the detour search never runs.  So the construction
builds from the :class:`~repro.core.components.ComponentTable` of the
faults.  A component that fills its bounding box notifies nothing; its
rounds come from :data:`rectangle_rounds`, keyed by width and height.
Every other component's outcome comes from :data:`shape_outcome`, keyed
by :func:`~repro.core.components.shape_key` and translated into place
with array ops, unless a fault lies on one of its notified cells: that
component is re-planned exactly by :func:`construct_component`.  Both
memos are process-wide and keep at most
:data:`~repro.core.components.SHAPE_MEMO_SIZE` entries; fault sweeps
repeat a few hundred shapes over and over.  The result's ``components``
are a lazy list, so a sweep trial builds no
:class:`~repro.core.components.FaultComponent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, List, NamedTuple, Optional, Sequence, Set

import numpy as np

from repro.core.components import FaultComponent, ShapeMemo, shape_cells
from repro.core.raster import FaultRaster
from repro.core.regions import FaultRegion, LazyList, mean_region_size, pile_polygons
from repro.distributed.notification import NotificationPlan, plan_notifications
from repro.distributed.ring import RingConstruction, construct_boundary_ring
from repro.faults.scenario import FaultScenario
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Topology
from repro.types import Coord, FaultRegionModel


#: Rounds spent by every node learning the fault status of its neighbours
#: and therefore its own boundary status (a single neighbour exchange).
BOUNDARY_STATUS_ROUNDS = 1


@dataclass
class ComponentConstruction:
    """Per-component record of the distributed construction."""

    component: FaultComponent
    ring: RingConstruction
    plan: NotificationPlan

    @property
    def polygon(self) -> Set[Coord]:
        """The component's minimum faulty polygon (faults plus notified nodes)."""
        return set(self.component.nodes) | self.plan.disabled_nodes

    @property
    def rounds(self) -> int:
        """Rounds this component's construction needs (ring + notification)."""
        return BOUNDARY_STATUS_ROUNDS + self.ring.rounds + self.plan.rounds


def construct_component(
    component: FaultComponent, fault_set: AbstractSet[Coord]
) -> ComponentConstruction:
    """Run the ring walk and the notification plan of one component.

    *fault_set* holds every fault of the network; the faults of the other
    components are the physically dead nodes a notification message must
    detour around (blocking polygons).  This is the exact per-component
    construction: :func:`build_minimum_polygons_distributed` re-plans a
    component with it when a fault lies on one of the component's notified
    cells, and the tests use it as the oracle of the shape memo.
    """
    ring = construct_boundary_ring(component)
    plan = plan_notifications(component, ring, fault_set)
    return ComponentConstruction(component=component, ring=ring, plan=plan)


class ComponentOutcome(NamedTuple):
    """What the network needs of one component's construction."""

    #: Boundary status, ring and notification rounds of the component.
    rounds: int
    #: ``(k, 2)`` coordinates of the nodes its notifications disable.
    notified: np.ndarray


def _coord_array(nodes) -> np.ndarray:
    array = np.array(sorted(nodes), dtype=np.int64).reshape(-1, 2)
    array.flags.writeable = False  # memo entries are shared by every caller
    return array


def _exact_outcome(
    component: FaultComponent, fault_set: AbstractSet[Coord]
) -> ComponentOutcome:
    """The outcome of :func:`construct_component`, as memo entries hold it."""
    entry = construct_component(component, fault_set)
    return ComponentOutcome(entry.rounds, _coord_array(entry.plan.disabled_nodes))


def _unblocked_outcome(nodes: Iterable[Coord]) -> ComponentOutcome:
    return _exact_outcome(FaultComponent(index=0, nodes=frozenset(nodes)), frozenset())


#: Process-wide memo: shape key -> the outcome of a component of that shape
#: (min x and min y at 0), unblocked.  With no blocking faults every
#: concave-section cell is notified, so the notified nodes are also the
#: shape's section cells.  ``shape_outcome.cache_clear()`` (or
#: :func:`repro.core.components.clear_shape_memos`) empties it.
shape_outcome = ShapeMemo(
    lambda keys: [
        _unblocked_outcome(map(tuple, shape_cells(key).tolist())) for key in keys
    ]
)

#: Process-wide memo: ``(width, height)`` -> the rounds of a component that
#: fills its bounding box (boundary status plus the ring walk; it has no
#: concave section, so it notifies nothing).
rectangle_rounds = ShapeMemo(
    lambda sizes: [
        _unblocked_outcome((x, y) for x in range(width) for y in range(height)).rounds
        for width, height in sizes
    ]
)


@dataclass
class DistributedMinimumPolygonConstruction:
    """Result of the distributed minimum faulty polygon construction."""

    grid: StatusGrid
    #: Final fault regions; a lazy :class:`~repro.core.regions.LazyList`,
    #: built on first access to a region.
    regions: Sequence[FaultRegion]
    #: The fault components, in :func:`~repro.core.components.find_components`
    #: order; a lazy :class:`~repro.core.regions.LazyList`.
    components: Sequence[FaultComponent]
    rounds: int
    model: FaultRegionModel = FaultRegionModel.MINIMUM_FAULTY_POLYGON
    #: Grid mapping every cell to the index of the region containing it
    #: (-1 outside every region); the routing layer's O(1) membership test.
    region_index: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    _per_component: Optional[List[ComponentConstruction]] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def per_component(self) -> List[ComponentConstruction]:
        """Every component's ring walk and notification plan, in order.

        Computed on first access by the exact per-component code
        (:func:`construct_component`); the construction itself only needs
        each component's rounds and notified nodes.
        """
        if self._per_component is None:
            fault_set = set().union(*(c.nodes for c in self.components))
            self._per_component = [
                construct_component(component, fault_set)
                for component in self.components
            ]
        return self._per_component

    @property
    def num_disabled_nonfaulty(self) -> int:
        """Non-faulty nodes disabled by the polygons (Figure 9 quantity)."""
        return self.grid.num_disabled_nonfaulty

    @property
    def mean_region_size(self) -> float:
        """Average polygon size in nodes (Figure 10 quantity)."""
        return mean_region_size(self.grid, self.regions)

    @property
    def total_messages(self) -> int:
        """Total message hops spent by ring walks and notifications."""
        return sum(
            entry.ring.rounds + entry.plan.total_messages
            for entry in self.per_component
        )

    def all_orthogonal_convex(self) -> bool:
        """Whether every final region satisfies Definition 1."""
        return all(region.is_orthogonal_convex for region in self.regions)


def build_minimum_polygons_distributed(
    faults: Sequence[Coord],
    topology: Optional[Topology] = None,
    width: int = 100,
    height: Optional[int] = None,
) -> DistributedMinimumPolygonConstruction:
    """Run the distributed minimum faulty polygon construction.

    Either pass an explicit *topology* or a *width*/*height* pair (a square
    ``width x width`` mesh by default, matching the paper's setup).  The
    components are the :class:`~repro.core.raster.FaultRaster`'s table,
    shared with MFP when both build from one raster.  Every component's
    outcome comes from the shape memos (see the module docstring); the
    notified nodes of all components are piled in one whole-array write.
    """
    if topology is None:
        topology = Mesh2D(width, height if height is not None else width)
    raster = FaultRaster.of(faults, topology)
    table = raster.component_table
    grid = raster.status_grid()
    filled = table.widths * table.heights == table.sizes
    sizes = np.unique(np.column_stack((table.widths[filled], table.heights[filled])), axis=0)
    rounds = rectangle_rounds.lookup([tuple(size) for size in sizes.tolist()])
    irregular = table.irregular
    outcomes = shape_outcome.lookup([table.keys[index] for index in irregular.tolist()])
    notified = table.place(irregular, [outcome.notified for outcome in outcomes])
    # Notified cells lie inside their component's bounding box, so on the
    # grid.  A faulty one sends its component to the exact re-plan.
    owner = np.repeat(irregular, [len(outcome.notified) for outcome in outcomes])
    blocked = np.unique(owner[grid.faulty[notified[:, 0], notified[:, 1]]])
    if blocked.size:
        fault_set = set(raster)
        components = table.materialise()
        exact = [_exact_outcome(components[index], fault_set) for index in blocked.tolist()]
        notified = np.concatenate(
            [notified[~np.isin(owner, blocked)]] + [outcome.notified for outcome in exact]
        )
        clean = (~np.isin(irregular, blocked)).tolist()
        outcomes = [outcome for outcome, keep in zip(outcomes, clean) if keep] + exact
    rounds += [outcome.rounds for outcome in outcomes]
    # Same convexity repair as the centralized build: overlapping polygons
    # piled into one region must stay orthogonal convex, and the
    # distributed result must keep matching the centralized one exactly.
    regions, region_index = pile_polygons(grid, notified)
    return DistributedMinimumPolygonConstruction(
        grid=grid,
        regions=regions,
        components=LazyList(len(table), table.materialise),
        rounds=max(rounds, default=0),
        region_index=region_index,
    )


def build_distributed_for_scenario(
    scenario: FaultScenario,
) -> DistributedMinimumPolygonConstruction:
    """Run the distributed construction for a :class:`FaultScenario`."""
    return build_minimum_polygons_distributed(
        scenario.faults, topology=scenario.topology()
    )
