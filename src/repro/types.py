"""Shared type definitions for the reproduction package.

The paper addresses a node ``u`` in an ``n x n`` 2-D mesh by a pair
``(u_x, u_y)`` with ``u_x, u_y in {0, 1, ..., n-1}``.  Throughout this
package a node coordinate is a plain ``(x, y)`` tuple of ints:

* ``x`` is the column index (dimension X, increasing eastwards),
* ``y`` is the row index (dimension Y, increasing northwards).

Using plain tuples keeps the hot loops allocation-light and lets the
coordinates be used directly as dictionary keys and set members, which the
construction algorithms rely on heavily.
"""

from __future__ import annotations

import enum
from typing import Tuple

#: A node coordinate ``(x, y)`` in the mesh.
Coord = Tuple[int, int]


class NodeKind(enum.IntEnum):
    """Final classification of a node after a fault-region construction.

    The paper's "piling" diagrams use three colours:

    * ``FAULTY``  -- black: an actually faulty node,
    * ``DISABLED`` -- gray: a non-faulty node included in a fault region
      (it is *unsafe and disabled*: it does not participate in routing),
    * ``ENABLED`` -- white / not drawn: a non-faulty node outside every
      fault region (it may still carry the *unsafe* label but it is
      enabled and participates in routing).
    """

    ENABLED = 0
    DISABLED = 1
    FAULTY = 2


class SafetyLabel(enum.IntEnum):
    """Labelling scheme 1 status (the *growing* phase).

    All faulty nodes are ``UNSAFE``; a non-faulty node becomes ``UNSAFE``
    when it has a faulty-or-unsafe neighbour in *both* dimensions.
    """

    SAFE = 0
    UNSAFE = 1


class ActivityLabel(enum.IntEnum):
    """Labelling scheme 2 status (the *shrinking* phase).

    Faulty nodes are ``DISABLED`` forever.  Safe nodes are ``ENABLED``.
    An unsafe non-faulty node starts ``DISABLED`` and becomes ``ENABLED``
    once it has two or more enabled neighbours.
    """

    ENABLED = 0
    DISABLED = 1


class Side(enum.Enum):
    """Boundary side of a node with respect to a faulty component.

    A *north boundary node* sits immediately north of a component node,
    and so on.  A single node may hold several boundary sides at once
    (e.g. both north and south of a thin component).
    """

    EAST = "E"
    SOUTH = "S"
    WEST = "W"
    NORTH = "N"


class Orientation(enum.Enum):
    """Traversal orientation used when routing around a fault region."""

    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"


class MessageType(enum.Enum):
    """Direction class of a message in extended e-cube routing.

    A message is initially ``WE`` (west-to-east) or ``EW`` (east-to-west)
    while it performs its row hops, and becomes ``SN`` (south-to-north) or
    ``NS`` (north-to-south) once it has finished its row hops and travels
    along the column towards its destination.
    """

    EW = "EW"
    WE = "WE"
    NS = "NS"
    SN = "SN"


class FaultRegionModel(enum.Enum):
    """The three fault-region models compared in the paper's evaluation."""

    FAULTY_BLOCK = "FB"
    SUB_MINIMUM_FAULTY_POLYGON = "FP"
    MINIMUM_FAULTY_POLYGON = "MFP"
