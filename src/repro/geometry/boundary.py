"""Boundary nodes, corners, and the clockwise boundary ring of a component.

The distributed minimum-faulty-polygon construction (Section 3.2 of the
paper) is driven by the *boundary nodes* of a faulty component: nodes that
are outside every faulty component but adjacent to this component.  A
boundary node immediately north of a component node is a *north boundary
node*, and similarly for south, east and west; a node may carry several
boundary sides at once.  Together with the *outer corner* nodes (nodes that
are only diagonally adjacent to the component) the boundary nodes form a
ring surrounding the component.  The initiation message of the distributed
solution travels clockwise along this ring starting from the west-most
south-west corner.

This module computes the boundary-side classification and produces the
clockwise ring walk.  The walk is a pure-geometry traversal on an unbounded
grid: a component that touches the mesh edge still has a well-defined walk
(some positions of the walk may fall outside the physical mesh; the
distributed engine accounts for them as border-node bookkeeping, see
``repro.distributed.ring``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.geometry import masks
from repro.types import Coord, Side

#: Unit steps for the four cardinal directions, in clockwise order starting
#: from north.  ``y`` grows northwards.
_DIRECTIONS: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 0), (0, -1), (-1, 0))
_NORTH, _EAST, _SOUTH, _WEST = 0, 1, 2, 3


@dataclass(frozen=True)
class BoundaryNode:
    """A node on the boundary ring of a component.

    ``sides`` lists the boundary sides the node holds with respect to the
    component (empty for a pure outer-corner node, which belongs to the ring
    but is not an east/south/west/north boundary node).
    """

    position: Coord
    sides: frozenset = field(default_factory=frozenset)

    @property
    def is_outer_corner(self) -> bool:
        """True when the node touches the component only diagonally."""
        return not self.sides


def four_neighbours(node: Coord) -> List[Coord]:
    """Return the four dimension-wise neighbours of *node* (unbounded grid)."""
    x, y = node
    return [(x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)]


def eight_neighbours(node: Coord) -> List[Coord]:
    """Return the eight adjacent nodes of *node* (the paper's Definition 2)."""
    x, y = node
    return [
        (x - 1, y - 1),
        (x - 1, y),
        (x - 1, y + 1),
        (x, y - 1),
        (x, y + 1),
        (x + 1, y - 1),
        (x + 1, y),
        (x + 1, y + 1),
    ]


def boundary_nodes(region: Iterable[Coord]) -> Dict[Coord, Set[Side]]:
    """Classify the 4-adjacent outside nodes of *region* by boundary side.

    Returns a mapping from node position to the set of sides it holds.  A
    node directly north of some region node is a north boundary node with
    respect to that region, etc.  Outer corners (diagonal-only adjacency) are
    *not* included here; see :func:`ring_members`.
    """
    region_set = set(region)
    result: Dict[Coord, Set[Side]] = {}
    for x, y in region_set:
        for neighbour, side in (
            ((x, y + 1), Side.NORTH),
            ((x, y - 1), Side.SOUTH),
            ((x + 1, y), Side.EAST),
            ((x - 1, y), Side.WEST),
        ):
            if neighbour in region_set:
                continue
            result.setdefault(neighbour, set()).add(side)
    return result


def ring_members(region: Iterable[Coord]) -> Dict[Coord, BoundaryNode]:
    """Return every node of the boundary ring (side nodes and outer corners)."""
    region_set = set(region)
    sides = boundary_nodes(region_set)
    members: Dict[Coord, BoundaryNode] = {}
    for node in region_set:
        for neighbour in eight_neighbours(node):
            if neighbour in region_set:
                continue
            members.setdefault(
                neighbour,
                BoundaryNode(neighbour, frozenset(sides.get(neighbour, set()))),
            )
    return members


def region_perimeter(region: Iterable[Coord]) -> int:
    """Return the number of exposed (node, side) edges of *region*.

    This is the length of the component's outline in grid-edge units and is
    the natural lower bound on the number of hops an initiation message needs
    to circle the component.
    """
    region_set = set(region)
    local = masks.try_local_mask(region_set)
    if local is not None:
        return masks.perimeter_mask(local[0])
    perimeter = 0
    for node in region_set:
        for neighbour in four_neighbours(node):
            if neighbour not in region_set:
                perimeter += 1
    return perimeter


def southwest_outer_corner(region: Iterable[Coord]) -> Coord:
    """Return the west-most south-west outer corner of *region*.

    The paper elects the west-most south-west (inner or outer) corner as the
    dominating initiator of the boundary-ring construction.  For the
    geometric walk we anchor on the outer corner diagonally south-west of the
    west-most (then south-most) component node; the overwriting rule in
    ``repro.distributed.ring`` reproduces the election among multiple
    candidate initiators.
    """
    region_set = set(region)
    if not region_set:
        raise ValueError("southwest_outer_corner() of an empty region")
    anchor = min(region_set, key=lambda node: (node[0], node[1]))
    return (anchor[0] - 1, anchor[1] - 1)


def _wall_follow(region_set: Set[Coord], start: Coord, heading: int) -> List[Coord]:
    """Trace a closed walk hugging *region_set* with the right-hand rule.

    The walker starts at *start* facing *heading* (the wall should be on its
    right) and repeatedly prefers turning right, then going straight, then
    turning left, then reversing.  Termination uses state repetition: the
    walk returned is the closed cycle between the first repeated
    ``(position, direction)`` state, which makes the tracer robust even when
    the starting state itself lies on a transient (e.g. inside a cavity).
    """
    states: dict = {}
    walk: List[Coord] = []
    position = start
    direction = heading
    max_steps = 16 * (len(region_set) + 8) ** 2  # generous safety bound

    for _ in range(max_steps):
        state = (position, direction)
        if state in states:
            return walk[states[state]:]
        states[state] = len(walk)
        walk.append(position)
        moved = False
        for turn in (1, 0, 3, 2):
            candidate_dir = (direction + turn) % 4
            dx, dy = _DIRECTIONS[candidate_dir]
            candidate = (position[0] + dx, position[1] + dy)
            if candidate not in region_set:
                position = candidate
                direction = candidate_dir
                moved = True
                break
        if not moved:
            # The walker is boxed in on all four sides (a one-cell closed
            # concave region, fully surrounded by the component): the walk
            # degenerates to the single starting cell.
            return walk
    raise RuntimeError(
        "wall follower failed to close the walk; region may be pathological"
    )


def boundary_ring(region: Iterable[Coord]) -> List[Coord]:
    """Return the clockwise boundary-ring walk around *region*.

    The walk starts at the node immediately west of the west-most,
    south-most component node, proceeds clockwise (keeping the component on
    the right-hand side), and ends just before returning to the start in the
    starting direction.  Nodes inside narrow concave slots are visited twice
    (once inbound, once outbound), matching the behaviour of the initiation
    message in the paper's Figure 5(b).

    For a single-node component the walk visits the eight surrounding nodes.
    The walk is computed on an unbounded grid; callers that need to respect
    mesh bounds filter the positions afterwards.  Closed concave regions
    (holes) have their own inner walks, see :func:`hole_rings`.
    """
    region_set = set(region)
    if not region_set:
        return []
    if len(region_set) == 1:
        (x, y) = next(iter(region_set))
        # Clockwise from the west neighbour.
        return [
            (x - 1, y),
            (x - 1, y + 1),
            (x, y + 1),
            (x + 1, y + 1),
            (x + 1, y),
            (x + 1, y - 1),
            (x, y - 1),
            (x - 1, y - 1),
        ]

    anchor = min(region_set, key=lambda node: (node[0], node[1]))
    start = (anchor[0] - 1, anchor[1])  # directly west of the anchor
    return _wall_follow(region_set, start, _NORTH)


def hole_cells(region: Iterable[Coord]) -> Set[Coord]:
    """Return the cells enclosed by *region* (its closed concave regions).

    A cell is enclosed when it lies inside the bounding box, does not belong
    to the region, and cannot reach the outside of the bounding box through
    4-neighbour moves over non-region cells.
    """
    region_set = set(region)
    if not region_set:
        return set()
    xs = [x for x, _ in region_set]
    ys = [y for _, y in region_set]
    min_x, max_x = min(xs) - 1, max(xs) + 1
    min_y, max_y = min(ys) - 1, max(ys) + 1
    # Flood fill the outside starting from the expanded border.
    outside: Set[Coord] = set()
    frontier = [(min_x, min_y)]
    while frontier:
        node = frontier.pop()
        if node in outside or node in region_set:
            continue
        x, y = node
        if not (min_x <= x <= max_x and min_y <= y <= max_y):
            continue
        outside.add(node)
        frontier.extend(((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)))
    holes: Set[Coord] = set()
    for x in range(min_x + 1, max_x):
        for y in range(min_y + 1, max_y):
            node = (x, y)
            if node not in region_set and node not in outside:
                holes.add(node)
    return holes


def hole_rings(region: Iterable[Coord]) -> List[List[Coord]]:
    """Return one inner ring walk per closed concave region of *region*.

    Each walk hugs the inside wall of one hole (the ring an initiation
    message started by the hole's south-west inner corner would travel).
    Walks are returned in deterministic order (sorted by their smallest
    cell).
    """
    region_set = set(region)
    holes = hole_cells(region_set)
    if not holes:
        return []
    # Group hole cells into connected cavities.
    remaining = set(holes)
    rings: List[List[Coord]] = []
    for seed in sorted(holes):
        if seed not in remaining:
            continue
        cavity = {seed}
        frontier = [seed]
        while frontier:
            x, y = frontier.pop()
            for neighbour in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if neighbour in remaining and neighbour not in cavity:
                    cavity.add(neighbour)
                    frontier.append(neighbour)
        remaining -= cavity
        # Start at the cavity's west-most, south-most cell that touches the
        # region, facing a direction whose right-hand side is the wall.
        candidates = sorted(
            cell
            for cell in cavity
            if any(n in region_set for n in four_neighbours(cell))
        )
        start = candidates[0]
        heading = _NORTH
        for direction in (_NORTH, _EAST, _SOUTH, _WEST):
            dx, dy = _DIRECTIONS[(direction + 1) % 4]
            if (start[0] + dx, start[1] + dy) in region_set:
                heading = direction
                break
        rings.append(_wall_follow(region_set, start, heading))
    return rings


def ring_length(region: Iterable[Coord]) -> int:
    """Return the number of hops of the clockwise boundary-ring walk."""
    return len(boundary_ring(region))
