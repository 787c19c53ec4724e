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
adjacent cell and the detour search never runs.  :func:`component_outcome`
therefore serves every component from a process-wide memo keyed by its
shape translated to the origin, and runs the exact per-component code
(:func:`construct_component`) only for a component with a faulty section
cell.  Fault sweeps repeat a few hundred shapes over and over; most
components are single nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, List, NamedTuple, Optional, Sequence, Set

import numpy as np

from repro.core.components import FaultComponent, find_components
from repro.core.regions import FaultRegion, convexify_regions, mean_region_size
from repro.geometry import masks
from repro.distributed.notification import NotificationPlan, plan_notifications
from repro.distributed.ring import RingConstruction, construct_boundary_ring
from repro.faults.scenario import FaultScenario
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Topology
from repro.types import Coord, FaultRegionModel


#: Rounds spent by every node learning the fault status of its neighbours
#: and therefore its own boundary status (a single neighbour exchange).
BOUNDARY_STATUS_ROUNDS = 1

#: Entries kept by the process-wide shape memo of :func:`shape_outcome`.
#: A 100x100 sweep pass of 5,000 components has under 200 distinct shapes.
SHAPE_MEMO_SIZE = 4096


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
    construction: :func:`component_outcome` falls back to it, and the
    tests use it as the oracle of the shape memo.
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


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE)
def shape_outcome(shape: FrozenSet[Coord]) -> ComponentOutcome:
    """The outcome of a component *shape* (min x and min y at 0), unblocked.

    With no blocking faults every concave-section cell is notified, so the
    notified nodes are also the shape's section cells.  Process-wide memo
    behind :func:`component_outcome`; ``shape_outcome.cache_clear()``
    empties it, e.g. to time the construction cold.
    """
    entry = construct_component(FaultComponent(index=0, nodes=shape), frozenset())
    return ComponentOutcome(entry.rounds, _coord_array(entry.plan.disabled_nodes))


def component_outcome(
    component: FaultComponent, fault_set: AbstractSet[Coord]
) -> ComponentOutcome:
    """The rounds and notified nodes of *component* among *fault_set*.

    Served from the shape memo, translated to the component's position,
    unless a fault lies on one of the shape's concave-section cells; that
    component runs :func:`construct_component` against the real faults.
    Both give the same outcome whenever the memo is used (see the module
    docstring), so the result is exact either way.
    """
    nodes = component.nodes
    xs, ys = zip(*nodes)
    min_x, min_y = min(xs), min(ys)
    shape = shape_outcome(frozenset([(x - min_x, y - min_y) for x, y in nodes]))
    if not shape.notified.size:
        return shape
    notified = shape.notified + (min_x, min_y)
    if any(cell in fault_set for cell in map(tuple, notified.tolist())):
        entry = construct_component(component, fault_set)
        return ComponentOutcome(entry.rounds, _coord_array(entry.plan.disabled_nodes))
    return ComponentOutcome(shape.rounds, notified)


@dataclass
class DistributedMinimumPolygonConstruction:
    """Result of the distributed minimum faulty polygon construction."""

    grid: StatusGrid
    #: Final fault regions; a lazy :class:`~repro.core.regions.RegionList`
    #: on the mask-kernel path, built on first access to a region.
    regions: Sequence[FaultRegion]
    components: List[FaultComponent]
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


def assemble_distributed(
    faults: Sequence[Coord],
    topology: Topology,
    components: List[FaultComponent],
) -> DistributedMinimumPolygonConstruction:
    """Run every component's construction and pile the results.

    *components* must partition *faults*.  Exposed so that callers that
    maintain the component partition themselves (notably the incremental
    :class:`repro.api.MeshSession`) take the same path as a one-shot build.
    """
    fault_set = set(faults)
    outcomes = [component_outcome(component, fault_set) for component in components]
    grid = StatusGrid(topology, faults)
    if masks.kernel_enabled():
        # Whole-array piling: paint every notified node (clipped to the
        # grid) in one write; the faults are already unsafe/disabled.
        notified = [outcome.notified for outcome in outcomes if outcome.notified.size]
        if notified:
            pts = np.concatenate(notified)
            width, height = grid.disabled.shape
            keep = (
                (pts[:, 0] >= 0)
                & (pts[:, 0] < width)
                & (pts[:, 1] >= 0)
                & (pts[:, 1] < height)
            )
            xs, ys = pts[keep, 0], pts[keep, 1]
            grid.unsafe[xs, ys] = True
            grid.disabled[xs, ys] = True
    else:
        for outcome in outcomes:
            for node in map(tuple, outcome.notified.tolist()):
                if node in fault_set or not topology.contains(node):
                    continue
                grid.mark_unsafe(node)
                grid.mark_disabled(node)

    # Same convexity repair as the centralized assemble: overlapping
    # polygons piled into one region must stay orthogonal convex, and the
    # distributed result must keep matching the centralized one exactly.
    if masks.kernel_enabled():
        regions, region_index = convexify_regions(grid, return_index=True)
    else:
        regions, region_index = convexify_regions(grid), None
    rounds = max((outcome.rounds for outcome in outcomes), default=0)
    return DistributedMinimumPolygonConstruction(
        grid=grid,
        regions=regions,
        components=components,
        rounds=rounds,
        region_index=region_index,
    )


def build_minimum_polygons_distributed(
    faults: Sequence[Coord],
    topology: Optional[Topology] = None,
    width: int = 100,
    height: Optional[int] = None,
) -> DistributedMinimumPolygonConstruction:
    """Run the distributed minimum faulty polygon construction.

    Either pass an explicit *topology* or a *width*/*height* pair (a square
    ``width x width`` mesh by default, matching the paper's setup).
    """
    if topology is None:
        topology = Mesh2D(width, height if height is not None else width)
    return assemble_distributed(faults, topology, find_components(faults))


def build_distributed_for_scenario(
    scenario: FaultScenario,
) -> DistributedMinimumPolygonConstruction:
    """Run the distributed construction for a :class:`FaultScenario`."""
    return build_minimum_polygons_distributed(
        scenario.faults, topology=scenario.topology()
    )
