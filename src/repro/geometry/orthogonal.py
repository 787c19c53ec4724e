"""Orthogonal convexity tests and the minimum orthogonal convex hull.

The paper's Definition 1:

    A fault region is *orthogonal convex* if and only if, for any horizontal
    or vertical line, whenever two nodes on the line are inside the region,
    all the nodes on the line between them are also inside the region.

The *minimum orthogonal convex hull* of a node set ``S`` is the smallest
orthogonal convex superset of ``S``.  It is computed by repeatedly filling
every concave row and column section (Definition 3) until a fixed point is
reached.  Every orthogonal convex superset of ``S`` must contain every node
added by such a fill step, so the fixed point is contained in all of them;
and the fixed point is itself orthogonal convex, hence it is the unique
minimum.  This function is the reference the centralized and distributed
minimum-faulty-polygon constructions are validated against.

Two implementations coexist.  The public functions run on the vectorized
bitmask kernel of :mod:`repro.geometry.masks` (the region is rasterised
into its bounding box and the spans are filled with whole-array
operations); the per-cell set implementations, under ``*_sets`` names,
serve regions whose bounding box is too sparse to rasterise
(:data:`~repro.geometry.masks.MAX_LOCAL_AREA`) and are the reference the
differential tests call by name.  Both produce bit-identical results, which
``tests/test_geometry_masks.py`` asserts on randomized inputs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.geometry import masks
from repro.types import Coord


def _rows_and_columns(
    region: Iterable[Coord],
) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    """Group a region into per-row column lists and per-column row lists."""
    rows: Dict[int, List[int]] = defaultdict(list)
    cols: Dict[int, List[int]] = defaultdict(list)
    for x, y in region:
        rows[y].append(x)
        cols[x].append(y)
    return rows, cols


# -- set-based oracle implementations ------------------------------------------------


def is_orthogonal_convex_sets(region: Iterable[Coord]) -> bool:
    """Set-based oracle for :func:`is_orthogonal_convex`."""
    region_set = set(region)
    rows, cols = _rows_and_columns(region_set)
    for y, xs in rows.items():
        lo, hi = min(xs), max(xs)
        if hi - lo + 1 != len(set(xs)):
            return False
        # Contiguity also requires that every intermediate cell is present.
        for x in range(lo, hi + 1):
            if (x, y) not in region_set:
                return False
    for x, ys in cols.items():
        lo, hi = min(ys), max(ys)
        for y in range(lo, hi + 1):
            if (x, y) not in region_set:
                return False
    return True


def orthogonal_convexity_violations_sets(region: Iterable[Coord]) -> Set[Coord]:
    """Set-based oracle for :func:`orthogonal_convexity_violations`."""
    region_set = set(region)
    missing: Set[Coord] = set()
    rows, cols = _rows_and_columns(region_set)
    for y, xs in rows.items():
        for x in range(min(xs), max(xs) + 1):
            if (x, y) not in region_set:
                missing.add((x, y))
    for x, ys in cols.items():
        for y in range(min(ys), max(ys) + 1):
            if (x, y) not in region_set:
                missing.add((x, y))
    return missing


def orthogonal_convex_hull_sets(region: Iterable[Coord]) -> FrozenSet[Coord]:
    """Set-based oracle for :func:`orthogonal_convex_hull`."""
    current: Set[Coord] = set(region)
    if not current:
        return frozenset()
    while True:
        missing = orthogonal_convexity_violations_sets(current)
        if not missing:
            return frozenset(current)
        current |= missing


# -- kernel-backed public API --------------------------------------------------------


def is_orthogonal_convex(region: Iterable[Coord]) -> bool:
    """Return ``True`` when *region* satisfies the paper's Definition 1.

    Equivalent formulation: in every row the occupied column indices form a
    contiguous run, and in every column the occupied row indices form a
    contiguous run.  The empty region and single nodes are trivially
    orthogonal convex.
    """
    region_set = set(region)
    local = masks.try_local_mask(region_set)
    if local is None:
        return is_orthogonal_convex_sets(region_set)
    return masks.is_convex_mask(local[0])


def orthogonal_convexity_violations(region: Iterable[Coord]) -> Set[Coord]:
    """Return the nodes that must be added to make *region* orthogonal convex.

    Only the *first layer* of violations is returned (the nodes lying on a
    horizontal or vertical segment between two region nodes but outside the
    region); adding them may expose further violations.  Use
    :func:`orthogonal_convex_hull` for the transitive closure.
    """
    region_set = set(region)
    local = masks.try_local_mask(region_set)
    if local is None:
        return orthogonal_convexity_violations_sets(region_set)
    mask, offset = local
    return set(masks.mask_to_coords(masks.span_violations(mask), offset))


def orthogonal_convex_hull(region: Iterable[Coord]) -> FrozenSet[Coord]:
    """Return the minimum orthogonal convex superset of *region*.

    The hull is computed by iterating the concave-section fill to a fixed
    point.  For a connected component a single pass usually suffices, but a
    fill along one axis can expose a new gap along the other, so the loop
    runs until no node is added.  The result is returned as a frozenset so
    that it can be hashed/cached by callers.

    The empty region yields the empty hull.
    """
    region_set = set(region)
    local = masks.try_local_mask(region_set)
    if local is None:
        return orthogonal_convex_hull_sets(region_set)
    mask, offset = local
    return masks.mask_to_frozenset(masks.hull_mask(mask), offset)


def hull_fill_nodes(region: Iterable[Coord]) -> FrozenSet[Coord]:
    """Return only the nodes *added* by the minimum orthogonal convex hull.

    These are exactly the non-faulty nodes a minimum faulty polygon disables
    for a faulty component equal to *region*.
    """
    region_set = set(region)
    return frozenset(orthogonal_convex_hull(region_set) - region_set)
