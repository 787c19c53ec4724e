"""Set-based reference constructions, one per construction key.

The production constructions run on the NumPy mask kernel: whole-array
component labelling, span-fill hulls, array piling, the label-grid
convexity repair and lazy region lists.  This module builds the same
results on the set-based path -- BFS components, set hulls, piling by the
paper's superseding rule (:func:`repro.core.superseding.pile_statuses`),
the set merge-fill fixpoint, per-component Solution-A rounds and set region
extraction -- so that the differential tests and
``benchmarks/bench_kernel.py`` can call it by name and compare.
:func:`build_minimum_polygons_via_labelling` is the paper's centralized
Solution A, which the tests hold against the hull fill (Solution B).  No
production construction calls it; :mod:`repro.core.verify` shares its
:func:`merge_fill`.

Every entry point returns a :class:`ReferenceConstruction` with the same
fields: the status grid (disabled and unsafe masks), the regions as a
plain list, the rounds and the per-component polygons.  FB and FP have no
per-component polygons: their labelling schemes already are the
whole-grid reference, so only the region extraction differs from the
production build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set

import numpy as np

from repro.core.components import find_components, find_components_bfs
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import MinimumPolygonConstruction, component_polygon_via_labelling
from repro.core.regions import FaultRegion, extract_regions, pile_polygons
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.core.superseding import pile_statuses
from repro.distributed.dmfp import construct_component
from repro.geometry.orthogonal import is_orthogonal_convex_sets, orthogonal_convex_hull_sets
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Topology
from repro.types import Coord, NodeKind


@dataclass
class ReferenceConstruction:
    """What a reference build produces, for every construction key."""

    grid: StatusGrid
    regions: List[FaultRegion]
    rounds: int
    #: Per-component polygons in component order (empty for FB and FP).
    polygons: List[FrozenSet[Coord]]


def merge_fill(disabled: Iterable[Coord]) -> Set[Coord]:
    """Close a disabled set under the merged-region convexity fill.

    Set form of :func:`repro.core.regions.convexify_regions`: piled
    component hulls that touch or overlap merge into one 4-connected
    region, and a merged region that is not orthogonal convex is filled to
    its hull, to a fixpoint.  A hull never leaves the bounding box of its
    nodes, so no topology clipping is needed.
    """
    closed = set(disabled)
    while True:
        dirty = [
            region.nodes
            for region in extract_regions(closed, ())
            if not is_orthogonal_convex_sets(region.nodes)
        ]
        if not dirty:
            return closed
        for nodes in dirty:
            closed |= orthogonal_convex_hull_sets(nodes)


def _pile(
    faults: Sequence[Coord],
    topology: Topology,
    polygons: List[FrozenSet[Coord]],
    rounds: int,
) -> ReferenceConstruction:
    """Pile per-component polygons with the superseding rule, then repair."""
    fault_set = set(faults)
    piled = pile_statuses(
        {node: NodeKind.FAULTY if node in fault_set else NodeKind.DISABLED for node in polygon}
        for polygon in polygons
    )
    disabled = merge_fill(
        fault_set
        | {
            node
            for node, status in piled.items()
            if status == NodeKind.DISABLED and topology.contains(node)
        }
    )
    grid = StatusGrid(topology, faults)
    for node in disabled - fault_set:
        grid.mark_disabled(node)
        grid.mark_unsafe(node)
    return ReferenceConstruction(grid, extract_regions(disabled, fault_set), rounds, polygons)


def build_fb(faults: Sequence[Coord], topology: Topology) -> ReferenceConstruction:
    """Rectangular faulty blocks with regions extracted by BFS."""
    raw = build_faulty_blocks(faults, topology=topology)
    regions = extract_regions(raw.grid.disabled_set(), faults)
    return ReferenceConstruction(raw.grid, regions, raw.rounds, [])


def build_fp(faults: Sequence[Coord], topology: Topology) -> ReferenceConstruction:
    """Sub-minimum faulty polygons with regions extracted by BFS."""
    raw = build_sub_minimum_polygons(faults, topology=topology)
    regions = extract_regions(raw.grid.disabled_set(), faults)
    return ReferenceConstruction(raw.grid, regions, raw.rounds, [])


def build_mfp(
    faults: Sequence[Coord], topology: Topology, compute_rounds: bool = True
) -> ReferenceConstruction:
    """Centralized Solution B: BFS components, set hulls, one labelling
    emulation per component for the rounds."""
    components = find_components_bfs(faults)
    polygons = [orthogonal_convex_hull_sets(c.nodes) for c in components]
    rounds = 0
    if compute_rounds:
        rounds = max(
            (component_polygon_via_labelling(c).rounds for c in components), default=0
        )
    return _pile(faults, topology, polygons, rounds)


def build_minimum_polygons_via_labelling(
    faults: Sequence[Coord], topology: Topology
) -> MinimumPolygonConstruction:
    """Centralized Solution A: every component's polygon comes from the
    labelling emulation (scheme 1 grows it to its virtual faulty block,
    scheme 2 shrinks it back), with no shape memo."""
    components = find_components(faults)
    component_polygons = [component_polygon_via_labelling(c) for c in components]
    grid = StatusGrid(topology, faults)
    nodes = [node for entry in component_polygons for node in entry.polygon]
    regions, region_index = pile_polygons(
        grid, np.array(nodes, dtype=np.int64).reshape(-1, 2)
    )
    return MinimumPolygonConstruction(
        grid=grid,
        regions=regions,
        components=components,
        component_polygons=component_polygons,
        rounds=max((entry.rounds for entry in component_polygons), default=0),
        region_index=region_index,
    )


def build_cmfp(faults: Sequence[Coord], topology: Topology) -> ReferenceConstruction:
    """CMFP: the centralized construction with the round emulation on."""
    return build_mfp(faults, topology, compute_rounds=True)


def build_dmfp(faults: Sequence[Coord], topology: Topology) -> ReferenceConstruction:
    """Distributed construction: the exact ring walk and notification plan of
    every component (:func:`repro.distributed.dmfp.construct_component`),
    with no shape memo."""
    fault_set = set(faults)
    entries = [construct_component(c, fault_set) for c in find_components_bfs(fault_set)]
    rounds = max((entry.rounds for entry in entries), default=0)
    return _pile(faults, topology, [frozenset(e.polygon) for e in entries], rounds)


#: The reference build of every construction key of :mod:`repro.api.registry`.
BUILDERS: Dict[str, Callable[[Sequence[Coord], Topology], ReferenceConstruction]] = {
    "fb": build_fb,
    "fp": build_fp,
    "mfp": build_mfp,
    "cmfp": build_cmfp,
    "dmfp": build_dmfp,
}
