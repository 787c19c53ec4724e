"""Link faults, mapped onto the node-fault model.

The paper (like most of the faulty-block literature) studies node faults and
notes that "link faults can be treated as node faults".  This module makes
that treatment concrete: a faulty link disables routing through it, and the
standard conservative mapping marks one of its two endpoints faulty so that
the rectangular-block / polygon constructions apply unchanged.

Two mappings are provided:

* :func:`links_to_node_faults` -- the conservative mapping used by the
  constructions: for every faulty link, the endpoint chosen by
  ``prefer_lower`` (lexicographically smaller by default) is treated as a
  faulty node.
* :func:`isolated_by_link_faults` -- nodes that lose *all* their links,
  which must be treated as faulty in any mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.geometry.masks import integer_rows
from repro.mesh.topology import Topology
from repro.types import Coord

#: A link is an unordered pair of adjacent node coordinates.
Link = Tuple[Coord, Coord]


def canonical_link(a: Coord, b: Coord) -> Link:
    """Return the canonical (sorted) representation of the link ``{a, b}``."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LinkFaultSet:
    """A set of faulty links on one topology."""

    topology: Topology
    links: FrozenSet[Link]

    def __post_init__(self) -> None:
        for a, b in self.links:
            if b not in self.topology.neighbours(a):
                raise ValueError(f"{(a, b)} is not a link of the topology")

    @property
    def num_links(self) -> int:
        """Number of faulty links."""
        return len(self.links)

    def is_faulty(self, a: Coord, b: Coord) -> bool:
        """Whether the link between *a* and *b* is faulty."""
        return canonical_link(a, b) in self.links

    def degraded_degree(self, node: Coord) -> int:
        """Number of healthy links *node* still has."""
        return sum(
            not self.is_faulty(node, neighbour)
            for neighbour in self.topology.neighbours(node)
        )


def make_link_fault_set(topology: Topology, links: Iterable[Sequence[Coord]]) -> LinkFaultSet:
    """Build a :class:`LinkFaultSet` from ``(a, b)`` pairs.

    Both endpoints of every link must be ``(x, y)`` pairs of integers by
    :func:`~repro.geometry.masks.integer_rows`'s rule (Python or numpy
    ints; not ``bool``, float or str), checked before the endpoints are
    ordered; raises ``ValueError`` naming the first link that breaks it.
    """
    canonical = set()
    for link in links:
        rows = integer_rows(link, 2)
        if rows is None or len(rows) != 2:
            raise ValueError(f"link {link!r} is not a pair of (x, y) coordinates of integers")
        (ax, ay), (bx, by) = rows.tolist()
        canonical.add(canonical_link((ax, ay), (bx, by)))
    return LinkFaultSet(topology=topology, links=frozenset(canonical))


def isolated_by_link_faults(fault_set: LinkFaultSet) -> Set[Coord]:
    """Return the nodes whose every link is faulty (effectively dead)."""
    involved = {node for link in fault_set.links for node in link}
    return {node for node in involved if fault_set.degraded_degree(node) == 0}


def links_to_node_faults(
    fault_set: LinkFaultSet,
    existing_node_faults: Iterable[Coord] = (),
    prefer_lower: bool = True,
) -> List[Coord]:
    """Map link faults to node faults for the block/polygon constructions.

    For every faulty link whose endpoints are both still healthy, one
    endpoint is marked faulty (the lexicographically smaller one when
    ``prefer_lower``, the larger one otherwise).  Nodes already faulty --
    either given in *existing_node_faults* or chosen for an earlier link --
    absorb further faulty links at no extra cost, which keeps the mapping
    close to minimal for clustered link failures.
    """
    node_faults: Set[Coord] = set(existing_node_faults)
    node_faults |= isolated_by_link_faults(fault_set)
    for link in sorted(fault_set.links):
        a, b = link
        if a in node_faults or b in node_faults:
            continue
        chosen = min(a, b) if prefer_lower else max(a, b)
        node_faults.add(chosen)
    return sorted(node_faults)
