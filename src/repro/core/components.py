"""Phase 1 of the minimum-faulty-polygon construction: the merge process.

Faulty nodes are grouped into *components*: maximal sets of faults that are
pairwise connected through the adjacency of Definition 2 (the eight
surrounding nodes, i.e. diagonal contacts count).  Each component maintains
the minimum and maximum coordinates of its nodes along both dimensions --
the bounding box that becomes the *virtual faulty block* in the centralized
solution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

import numpy as np

from repro.geometry import masks
from repro.geometry.rectangle import Rectangle, bounding_rectangle
from repro.geometry.boundary import eight_neighbours, region_perimeter
from repro.types import Coord


@dataclass(frozen=True)
class FaultComponent:
    """A maximal 8-connected group of faulty nodes.

    ``index`` is a stable identifier assigned in discovery order (components
    are discovered scanning faults in sorted coordinate order, so the index
    is deterministic for a given fault set).
    """

    index: int
    nodes: FrozenSet[Coord]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a fault component cannot be empty")

    @property
    def size(self) -> int:
        """Number of faulty nodes in the component."""
        return len(self.nodes)

    @property
    def bounding_box(self) -> Rectangle:
        """The virtual faulty block of the component (its bounding box)."""
        return bounding_rectangle(self.nodes)

    @property
    def min_x(self) -> int:
        """Smallest X coordinate of any node in the component."""
        return self.bounding_box.min_x

    @property
    def min_y(self) -> int:
        """Smallest Y coordinate of any node in the component."""
        return self.bounding_box.min_y

    @property
    def max_x(self) -> int:
        """Largest X coordinate of any node in the component."""
        return self.bounding_box.max_x

    @property
    def max_y(self) -> int:
        """Largest Y coordinate of any node in the component."""
        return self.bounding_box.max_y

    @property
    def extent(self) -> int:
        """Maximum of the bounding-box width and height.

        The number of rounds the per-component labelling emulation needs is
        bounded by the extent, which is why the paper argues CMFP needs far
        fewer rounds than the whole-network labelling of FB/FP.
        """
        box = self.bounding_box
        return max(box.width, box.height)

    @property
    def perimeter(self) -> int:
        """Length of the component outline in grid-edge units."""
        return region_perimeter(self.nodes)

    def __contains__(self, node: Coord) -> bool:
        return node in self.nodes

    def __iter__(self):
        return iter(sorted(self.nodes))

    def __len__(self) -> int:
        return self.size

    def is_adjacent(self, node: Coord) -> bool:
        """Return ``True`` when *node* touches the component (8-adjacency)."""
        if node in self.nodes:
            return False
        return any(n in self.nodes for n in eight_neighbours(node))


def find_components(
    faults: Iterable[Coord],
    diagonal: bool = True,
) -> List[FaultComponent]:
    """Group *faults* into components using the merge process.

    Dispatches to the vectorized labelling of :mod:`repro.geometry.masks`
    (the faults are rasterised into their bounding box and labelled with
    whole-array operations); :func:`find_components_bfs` is the set-based
    oracle and the fallback for pathologically sparse fault sets.  Both
    return bit-identical component lists.

    Parameters
    ----------
    faults:
        The injected fault positions.
    diagonal:
        Whether diagonal contact joins two faults into one component.  The
        paper's Definition 2 includes the diagonals (``True``); the flag
        exists for ablation studies on the adjacency notion.

    Returns
    -------
    list[FaultComponent]
        Components in deterministic discovery order (sorted seed nodes).
    """
    fault_set: Set[Coord] = set(faults)
    local = masks.try_local_mask(fault_set)
    if local is None:
        return find_components_bfs(fault_set, diagonal)
    mask, (min_x, min_y) = local
    labels, count = masks.label_mask(mask, connectivity=8 if diagonal else 4)
    xs, ys = np.nonzero(labels)
    lab = labels[xs, ys]
    order = np.argsort(lab, kind="stable")  # keeps (x, y) order per label
    xl = (xs[order] + min_x).tolist()
    yl = (ys[order] + min_y).tolist()
    bounds = np.searchsorted(lab[order], np.arange(1, count + 2)).tolist()
    return [
        FaultComponent(
            index=index,
            nodes=frozenset(
                zip(
                    xl[bounds[index] : bounds[index + 1]],
                    yl[bounds[index] : bounds[index + 1]],
                )
            ),
        )
        for index in range(count)
    ]


def find_components_bfs(
    faults: Iterable[Coord],
    diagonal: bool = True,
) -> List[FaultComponent]:
    """Set-based BFS oracle for :func:`find_components` (same output)."""
    fault_set: Set[Coord] = set(faults)
    unvisited = set(fault_set)
    components: List[FaultComponent] = []
    for seed in sorted(fault_set):
        if seed not in unvisited:
            continue
        queue = deque([seed])
        unvisited.discard(seed)
        members: Set[Coord] = {seed}
        while queue:
            node = queue.popleft()
            if diagonal:
                neighbours = eight_neighbours(node)
            else:
                x, y = node
                neighbours = [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
            for neighbour in neighbours:
                if neighbour in unvisited:
                    unvisited.discard(neighbour)
                    members.add(neighbour)
                    queue.append(neighbour)
        components.append(FaultComponent(index=len(components), nodes=frozenset(members)))
    return components


def component_of(components: Sequence[FaultComponent], node: Coord) -> FaultComponent | None:
    """Return the component containing *node*, or ``None``."""
    for component in components:
        if node in component:
            return component
    return None


def largest_component(components: Sequence[FaultComponent]) -> FaultComponent | None:
    """Return the component with the most faults (``None`` when empty)."""
    if not components:
        return None
    return max(components, key=lambda c: (c.size, -c.index))


def component_statistics(components: Sequence[FaultComponent]) -> Dict[str, float]:
    """Summary statistics over a component list (used by experiment logs)."""
    if not components:
        return {
            "count": 0,
            "mean_size": 0.0,
            "max_size": 0,
            "mean_extent": 0.0,
            "max_extent": 0,
        }
    sizes = [c.size for c in components]
    extents = [c.extent for c in components]
    return {
        "count": len(components),
        "mean_size": sum(sizes) / len(sizes),
        "max_size": max(sizes),
        "mean_extent": sum(extents) / len(extents),
        "max_extent": max(extents),
    }
