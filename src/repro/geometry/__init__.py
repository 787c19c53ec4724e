"""Orthogonal geometry utilities on the integer grid.

This subpackage provides the purely combinatorial geometry the fault-region
constructions are built on:

* :class:`~repro.geometry.rectangle.Rectangle` -- axis-aligned integer
  rectangles (the shape of a rectangular faulty block and of the virtual
  faulty block grown from a component's bounding box).
* :func:`~repro.geometry.orthogonal.is_orthogonal_convex` -- the paper's
  Definition 1.
* :func:`~repro.geometry.orthogonal.orthogonal_convex_hull` -- the minimum
  orthogonal convex superset of a set of nodes, computed by iteratively
  filling concave row/column sections (the reference implementation that the
  centralized and distributed constructions are validated against).
* :func:`~repro.geometry.sections.concave_row_sections` /
  :func:`~repro.geometry.sections.concave_column_sections` -- the paper's
  Definition 3.
* :func:`~repro.geometry.boundary.boundary_ring` -- the ring of non-member
  nodes surrounding a component, walked clockwise starting from the
  west-most south-west corner (used by the distributed solution).
* :mod:`~repro.geometry.masks` -- the vectorized bitmask kernel backing the
  primitives above (the set-based implementations serve inputs too sparse
  to rasterise and remain the differential-test reference).
"""

from repro.geometry import masks
from repro.geometry.rectangle import Rectangle, bounding_rectangle
from repro.geometry.orthogonal import (
    is_orthogonal_convex,
    orthogonal_convex_hull,
    orthogonal_convexity_violations,
)
from repro.geometry.sections import (
    Section,
    concave_column_sections,
    concave_row_sections,
    concave_sections,
)
from repro.geometry.boundary import (
    BoundaryNode,
    boundary_nodes,
    boundary_ring,
    region_perimeter,
)

__all__ = [
    "masks",
    "Rectangle",
    "bounding_rectangle",
    "is_orthogonal_convex",
    "orthogonal_convex_hull",
    "orthogonal_convexity_violations",
    "Section",
    "concave_row_sections",
    "concave_column_sections",
    "concave_sections",
    "BoundaryNode",
    "boundary_nodes",
    "boundary_ring",
    "region_perimeter",
]
