"""Extraction of disjoint fault regions and per-region statistics.

Every construction (FB, FP, MFP) ends with a set of *disabled* nodes; the
maximal 4-connected groups of disabled nodes are the disjoint fault regions
the routing layer must steer around.  The evaluation needs, per region, the
number of faulty and non-faulty nodes it contains (Figures 9 and 10) and
its shape properties (rectangularity for FB, orthogonal convexity for FP
and MFP -- both are asserted by the test suite).

Constructions return their regions as a :class:`LazyList` over the
canonical label grid, turned into :class:`FaultRegion` objects only when a
caller first looks inside a region.  The figure scalars need only the
region count and the disabled-node count (:func:`mean_region_size`), so a
sweep never builds the per-node frozensets.  :func:`extract_regions` is
the set-based reference, returning a plain list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Sequence as SequenceABC
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry import masks
from repro.geometry.orthogonal import is_orthogonal_convex
from repro.geometry.rectangle import Rectangle, bounding_rectangle
from repro.types import Coord


@dataclass(frozen=True)
class FaultRegion:
    """One disjoint fault region produced by a construction."""

    index: int
    nodes: FrozenSet[Coord]
    faulty_nodes: FrozenSet[Coord]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a fault region cannot be empty")
        if not self.faulty_nodes <= self.nodes:
            raise ValueError("faulty nodes must be a subset of the region nodes")

    @property
    def size(self) -> int:
        """Total number of nodes (faulty + disabled non-faulty) in the region.

        This is the quantity averaged in the paper's Figure 10.
        """
        return len(self.nodes)

    @property
    def num_faulty(self) -> int:
        """Number of actually faulty nodes covered by the region."""
        return len(self.faulty_nodes)

    @property
    def num_disabled_nonfaulty(self) -> int:
        """Number of non-faulty nodes the region disables."""
        return self.size - self.num_faulty

    @property
    def bounding_box(self) -> Rectangle:
        """Bounding rectangle of the region."""
        return bounding_rectangle(self.nodes)

    @property
    def is_rectangle(self) -> bool:
        """Whether the region fills its bounding box exactly."""
        return self.size == self.bounding_box.area

    @property
    def is_orthogonal_convex(self) -> bool:
        """Whether the region satisfies the paper's Definition 1."""
        return is_orthogonal_convex(self.nodes)

    def __contains__(self, node: Coord) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(sorted(self.nodes))


def extract_regions(
    disabled: Iterable[Coord],
    faults: Iterable[Coord],
) -> List[FaultRegion]:
    """Split the disabled node set into maximal 4-connected fault regions.

    Regions are returned in deterministic order (sorted seed node).  Note
    that region extraction uses the physical link adjacency (4-neighbours):
    two regions touching only diagonally are distinct regions, which matches
    how the routing layer perceives them.
    """
    disabled_set: Set[Coord] = set(disabled)
    fault_set: Set[Coord] = set(faults)
    unvisited = set(disabled_set)
    regions: List[FaultRegion] = []
    for seed in sorted(disabled_set):
        if seed not in unvisited:
            continue
        queue = deque([seed])
        unvisited.discard(seed)
        members: Set[Coord] = {seed}
        while queue:
            x, y = queue.popleft()
            for neighbour in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                if neighbour in unvisited:
                    unvisited.discard(neighbour)
                    members.add(neighbour)
                    queue.append(neighbour)
        regions.append(
            FaultRegion(
                index=len(regions),
                nodes=frozenset(members),
                faulty_nodes=frozenset(members & fault_set),
            )
        )
    return regions


def regions_from_masks(disabled: np.ndarray, faulty: np.ndarray) -> Sequence[FaultRegion]:
    """Extract regions from boolean ``[x, y]`` masks.

    Uses the vectorized 4-connected labelling of
    :mod:`repro.geometry.masks`; the result equals the set-based
    :func:`extract_regions` reference element by element.
    """
    regions, _ = extract_regions_and_index(disabled, faulty, build_index=False)
    return regions


def _regions_from_labels(
    labels: np.ndarray, count: int, faulty: np.ndarray
) -> List[FaultRegion]:
    """Build the :class:`FaultRegion` list from a canonical label grid."""
    xs, ys = np.nonzero(labels)
    lab = labels[xs, ys]
    order = np.argsort(lab, kind="stable")  # keeps (x, y) order per label
    xs, ys, lab = xs[order], ys[order], lab[order]
    xl, yl = xs.tolist(), ys.tolist()
    bounds = np.searchsorted(lab, np.arange(1, count + 2)).tolist()
    is_fault = faulty[xs, ys]
    fault_lab = lab[is_fault]
    fxl = xs[is_fault].tolist()
    fyl = ys[is_fault].tolist()
    fault_bounds = np.searchsorted(fault_lab, np.arange(1, count + 2)).tolist()
    regions: List[FaultRegion] = []
    for index in range(count):
        start, end = bounds[index], bounds[index + 1]
        fstart, fend = fault_bounds[index], fault_bounds[index + 1]
        regions.append(
            FaultRegion(
                index=index,
                nodes=frozenset(zip(xl[start:end], yl[start:end])),
                faulty_nodes=frozenset(zip(fxl[fstart:fend], fyl[fstart:fend])),
            )
        )
    return regions


class LazyList(SequenceABC):
    """Read-only sequence whose items a builder makes on first look.

    ``len()`` and truth tests read the count given at creation; the first
    element access (indexing, iteration, ``==``, ``repr``) calls
    ``build(*args)`` once, keeps the list it returns and drops the
    arguments.  ``==`` compares element-wise with lists and other lazy
    lists; like a list, the object is unhashable, and it pickles when
    *build* and *args* do.  Constructions hold their regions, components
    and per-component polygons this way, so a sweep that only counts them
    builds no per-node frozensets.
    """

    __slots__ = ("_count", "_source", "_items")

    def __init__(self, count: int, build: Callable[..., list], *args) -> None:
        self._count = count
        self._source: Optional[Tuple[Callable[..., list], tuple]] = (build, args)
        self._items: Optional[list] = None

    def _built(self) -> list:
        # One read of the source, and the items stored before it is
        # dropped: a second reader either builds the same list again or
        # finds it stored, never a half-dropped source.
        source = self._source
        if source is not None:
            self._items = source[0](*source[1])
            self._source = None
        return self._items

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, LazyList)):
            return NotImplemented
        return len(other) == self._count and self._built() == other

    def __repr__(self) -> str:
        return repr(self._built())


def mean_region_size(grid, regions: Sequence[FaultRegion]) -> float:
    """Average region size in nodes (Figure 10), ``0.0`` with no regions.

    The regions partition the grid's disabled cells, so the disabled count
    over the region count equals ``sum(r.size) / len(regions)`` exactly
    (both are one correctly rounded division of the same two integers),
    without looking inside a region.
    """
    if not regions:
        return 0.0
    return grid.num_disabled / len(regions)


def extract_regions_and_index(
    disabled: np.ndarray,
    faulty: np.ndarray,
    build_index: bool = True,
) -> Tuple[Sequence[FaultRegion], "np.ndarray | None"]:
    """Extract regions from masks plus the region-index grid.

    The region-index grid maps every cell to the index of the region that
    contains it (``-1`` outside every region); it gives the routing layer
    O(1) region membership without rebuilding a node->region dict per
    router instantiation.  Pass ``build_index=False`` to skip it when only
    the region list is needed.

    The regions are a :class:`LazyList` over the label grid and a copy of
    *faulty* (later writes to the mask do not reach them), so counting them
    builds no :class:`FaultRegion`.
    """
    labels, count = masks.label_mask(disabled, connectivity=4)
    index_grid = labels - 1 if build_index else None
    return LazyList(count, _regions_from_labels, labels, count, faulty.copy()), index_grid


def convexify_regions(grid, return_index: bool = False):
    """Extract regions from *grid*, filling merged regions to convexity.

    Piling independently constructed per-component polygons (the MFP/DMFP
    superseding step) can produce touching or overlapping polygons whose
    merged region is *not* orthogonal convex -- e.g. a singleton fault
    8-adjacent to another component's hull.  The routing layer requires
    convex regions, so any non-convex merged region is filled to its
    orthogonal convex hull; filling can make further regions touch, hence
    the fixpoint loop (it terminates because the disabled set only grows
    and is bounded by the mesh).  In the common non-overlapping case this
    is a single extraction with no extra work.
    :func:`repro.core.reference.merge_fill` is the set-based reference of
    the same fixpoint.

    With ``return_index=True`` the result is ``(regions, region_index)``
    where the index grid maps cells to region indices (see
    :func:`extract_regions_and_index`).  The regions are a
    :class:`LazyList` over the final label grid.
    """
    while True:
        labels, count = masks.label_mask(grid.disabled, connectivity=4)
        dirty_labels = masks.nonconvex_labels(labels, count)
        if dirty_labels.size == 0:
            # Only the final, convex partition becomes a region list;
            # intermediate fixpoint iterations stay in array land.
            regions = LazyList(count, _regions_from_labels, labels, count, grid.faulty.copy())
            return (regions, labels - 1) if return_index else regions
        for label in dirty_labels.tolist():
            cells = labels == label
            xs, ys = np.nonzero(cells)
            x0, x1 = int(xs.min()), int(xs.max())
            y0, y1 = int(ys.min()), int(ys.max())
            hull = masks.hull_mask(cells[x0 : x1 + 1, y0 : y1 + 1])
            grid.disabled[x0 : x1 + 1, y0 : y1 + 1] |= hull
            grid.unsafe[x0 : x1 + 1, y0 : y1 + 1] |= hull


def pile_polygons(grid, points: np.ndarray):
    """Disable *points* on *grid*; return ``(regions, region_index)``.

    The superseding step of MFP and DMFP: *points* is an ``(n, 2)`` array
    of the nodes the per-component polygons cover, painted disabled and
    unsafe in one write (clipped to the grid; the faults are already
    marked, so faulty > disabled > enabled holds without a per-node
    rule).  :func:`convexify_regions` then repairs merged regions.
    :func:`repro.core.reference.build_mfp` piles with the rule itself.
    """
    if points.size:
        width, height = grid.disabled.shape
        xs, ys = points[:, 0], points[:, 1]
        keep = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        xs, ys = xs[keep], ys[keep]
        grid.disabled[xs, ys] = True
        grid.unsafe[xs, ys] = True
    return convexify_regions(grid, return_index=True)


def region_statistics(regions: Sequence[FaultRegion]) -> Dict[str, float]:
    """Aggregate statistics over a region list.

    ``mean_size`` is the Figure 10 quantity (average number of faulty and
    non-faulty nodes per region); ``total_disabled_nonfaulty`` is the
    Figure 9 quantity (non-faulty but disabled nodes in the whole network).
    """
    if not regions:
        return {
            "count": 0,
            "mean_size": 0.0,
            "max_size": 0,
            "total_disabled_nonfaulty": 0,
            "total_faulty": 0,
            "convex_fraction": 1.0,
        }
    sizes = [r.size for r in regions]
    return {
        "count": len(regions),
        "mean_size": sum(sizes) / len(sizes),
        "max_size": max(sizes),
        "total_disabled_nonfaulty": sum(r.num_disabled_nonfaulty for r in regions),
        "total_faulty": sum(r.num_faulty for r in regions),
        "convex_fraction": sum(r.is_orthogonal_convex for r in regions) / len(regions),
    }
