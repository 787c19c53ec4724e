"""Extended e-cube routing around orthogonal convex fault regions.

The router follows the base e-cube routing while the path ahead is clear.
When the next hop falls inside a fault region the message enters *abnormal*
mode and travels along the region's boundary ring, clockwise or
counter-clockwise according to the rules of Section 2.2:

* NS- and SN-bound messages: the orientation is a don't care (clockwise is
  used here);
* WE-bound messages: clockwise when the message is in a row above its row
  of travel (the destination row), counter-clockwise when below, don't care
  when level;
* EW-bound messages: the mirror image.

The message leaves abnormal mode -- "the region no longer has an effect" --
once it has passed the region along its direction of travel (or reached its
destination column during a row traversal) and the base e-cube next hop is
clear again.

The router requires the regions it is given to be orthogonal convex (that
is the whole point of the fault models in this package); it reports a
failed delivery instead of looping forever when a traversal is obstructed
by another overlapping region or leaves the mesh.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.regions import FaultRegion
from repro.geometry.rectangle import Rectangle
from repro.mesh.topology import Topology
from repro.routing.ecube import (
    column_message_type,
    ecube_next_hop,
    initial_message_type,
    manhattan_distance,
)
from repro.types import Coord, MessageType, Orientation


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing one message."""

    source: Coord
    destination: Coord
    delivered: bool
    path: Tuple[Coord, ...]
    abnormal_hops: int
    reason: str = ""

    @property
    def hops(self) -> int:
        """Number of link traversals performed."""
        return max(0, len(self.path) - 1)

    @property
    def detour(self) -> int:
        """Extra hops compared to the fault-free minimal path."""
        return self.hops - manhattan_distance(self.source, self.destination)

    @property
    def is_minimal(self) -> bool:
        """Whether the delivered path is a minimal (shortest) path."""
        return self.delivered and self.detour == 0


class ExtendedECubeRouter:
    """Route messages around a fixed set of fault regions.

    Region membership is answered from a whole-grid *region-index* array
    (cell -> region index, ``-1`` outside every region): ``is_disabled`` and
    the abnormal-mode region lookup are O(1) array reads, and instantiating
    a router is O(total region size) in vectorized assignments instead of a
    Python dict insert per node.  Constructions built by the mask kernel
    already carry the index grid (``region_index`` on the construction
    result); passing it here skips even the vectorized build, and the
    router then reads a region's node set from the grid the first time it
    needs it (:meth:`region_nodes`), so *regions* is only counted, never
    looked inside.  Routers built from explicit region lists keep them.

    Per-region boundary-ring geometry (the ring walk, its first-occurrence
    position map and the bounding box) lives in
    :class:`repro.routing.engine.RegionGeometry` objects, resolved lazily
    only when a message actually enters abnormal mode around that region --
    and shared across router rebuilds when a session attaches its
    :class:`~repro.routing.engine.RegionRingCache`
    (:meth:`attach_ring_cache`) -- and a router rebuilt after ``add_faults``
    takes over its predecessor's geometry of every region the update left
    as it was (:func:`repro.routing.engine.transplant_engine_state`), so
    only the rings of regions the update changed are recomputed or looked
    up in the cache.  Normal-mode routing
    advances whole straight runs at a time using the
    :class:`~repro.routing.engine.JumpTables` built lazily from the
    disabled mask, instead of re-deriving the next hop one cell at a time.

    ``detours`` switches the ring traversal: the base e-cube router of
    :mod:`repro.routing.registry` is this class with ``detours = False``,
    whose walk fails where this one would enter abnormal mode.
    """

    #: Whether a blocked message traverses the blocking region's ring.
    detours = True

    def __init__(
        self,
        topology: Topology,
        regions: Sequence[FaultRegion] | Iterable[Iterable[Coord]],
        max_hops: Optional[int] = None,
        region_index: Optional[np.ndarray] = None,
    ) -> None:
        self.topology = topology
        width, height = topology.width, topology.height
        self._shape = (width, height)
        #: Region nodes outside the grid (legal for ad-hoc caller-supplied
        #: regions; constructions never produce them).
        self._extra_disabled: Dict[Coord, int] = {}
        #: Node set per region index; ``None`` until :meth:`region_nodes`
        #: reads it from the index grid.
        self._regions: List[Optional[FrozenSet[Coord]]]
        #: The grid's region cells in region order and each region's bounds
        #: in it, built by the first :meth:`region_nodes` read.
        self._cells: Optional[Tuple[np.ndarray, List[int]]] = None
        if region_index is not None and region_index.shape == self._shape:
            self._region_index = region_index
            if not isinstance(regions, Sized):
                regions = list(regions)
            self._regions = [None] * len(regions)
        else:
            self._regions = [
                frozenset(region.nodes if isinstance(region, FaultRegion) else region)
                for region in regions
            ]
            self._region_index = np.full(self._shape, -1, dtype=np.int32)
            for index, nodes in enumerate(self._regions):
                if not nodes:
                    continue
                pts = np.asarray(list(nodes))
                keep = (
                    (pts[:, 0] >= 0)
                    & (pts[:, 0] < width)
                    & (pts[:, 1] >= 0)
                    & (pts[:, 1] < height)
                )
                self._region_index[pts[keep, 0], pts[keep, 1]] = index
                for x, y in pts[~keep]:
                    self._extra_disabled[(int(x), int(y))] = index
        self._disabled_mask = self._region_index >= 0
        self._disabled_set: Optional[Set[Coord]] = None
        # Per-region ring geometry, resolved lazily (and through the shared
        # session cache when one is attached).
        self._geometry: Dict[int, object] = {}
        self._shared_rings = None
        self._tables = None
        self._packed_rings = None
        self._counters: Optional[Dict[str, int]] = None
        self.max_hops = max_hops if max_hops is not None else 8 * (
            topology.width + topology.height
        )

    # -- helpers -----------------------------------------------------------------

    @property
    def disabled(self) -> Set[Coord]:
        """Every node belonging to a fault region, as a coordinate set.

        Kept for callers that want the set view (tests, diagnostics);
        materialised lazily from the region-index grid -- routing itself
        never touches it.
        """
        if self._disabled_set is None:
            xs, ys = np.nonzero(self._disabled_mask)
            self._disabled_set = set(zip(xs.tolist(), ys.tolist()))
            self._disabled_set.update(self._extra_disabled)
        return self._disabled_set

    @property
    def enabled_mask(self) -> np.ndarray:
        """Boolean grid of enabled nodes (the complement of all regions).

        The whole-grid view the traffic generators of
        :mod:`repro.routing.traffic` filter endpoints with; treat it as
        read-only.
        """
        return ~self._disabled_mask

    @property
    def num_enabled(self) -> int:
        """Number of nodes outside every fault region."""
        return int(self._shape[0] * self._shape[1] - np.count_nonzero(self._disabled_mask))

    def enabled_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(xs, ys)`` index arrays of all enabled nodes, ``(x, y)``-sorted."""
        return np.nonzero(~self._disabled_mask)

    def is_disabled(self, node: Coord) -> bool:
        """Whether *node* belongs to any fault region."""
        x, y = node
        if 0 <= x < self._shape[0] and 0 <= y < self._shape[1]:
            return bool(self._disabled_mask[x, y])
        return node in self._extra_disabled

    def region_of(self, node: Coord) -> int:
        """Index of the region containing *node* (``-1`` when enabled)."""
        x, y = node
        if 0 <= x < self._shape[0] and 0 <= y < self._shape[1]:
            return int(self._region_index[x, y])
        return self._extra_disabled.get(node, -1)

    @property
    def region_index(self) -> np.ndarray:
        """The whole-grid cell-to-region index array (read-only view)."""
        return self._region_index

    def region_nodes(self, index: int) -> FrozenSet[Coord]:
        """The node set of region *index*.

        A router built over an index grid reads it from the grid on first
        need: one sort of the grid's region cells by region (on the first
        read), then one slice per region.  A fault update's rebuilt router
        takes over the geometry of every region it did not touch, so it
        only reads the node sets of the regions that changed.
        """
        nodes = self._regions[index]
        if nodes is None:
            if self._cells is None:
                cells = np.flatnonzero(self._disabled_mask)
                labels = self._region_index.ravel()[cells]
                order = np.argsort(labels, kind="stable")
                bounds = np.searchsorted(labels[order], np.arange(len(self._regions) + 1))
                self._cells = (cells[order], bounds.tolist())
            cells, bounds = self._cells
            xs, ys = np.divmod(cells[bounds[index] : bounds[index + 1]], self._shape[1])
            nodes = self._regions[index] = frozenset(zip(xs.tolist(), ys.tolist()))
        return nodes

    def attach_ring_cache(self, cache) -> None:
        """Resolve ring geometry through a shared :class:`RegionRingCache`.

        Called by :class:`repro.api.RoutingSession` right after building a
        router: the cache is keyed by region identity (the frozen node
        set), so a rebuilt router finds the rings, position maps and
        bounding boxes of a changed region whose node set it has seen
        before (a repair restoring an earlier region).
        """
        self._shared_rings = cache

    def attach_counters(self, counters: Dict[str, int]) -> None:
        """Report engine-state rebuilds into a shared counter dict.

        Called by :class:`repro.api.RoutingSession` right after building
        a router: full :class:`~repro.routing.engine.JumpTables` builds
        bump ``jump_rebuilds`` and fresh
        :class:`~repro.routing.engine.PackedRings` bump ``ring_rebuilds``
        in ``session.cache_info``, so the win of the fault-delta path
        (``delta_applies``) is observable rather than inferred.  A walk
        that fast-forwards a livelock cycle bumps ``livelock_skips``.
        """
        self._counters = counters

    def _count(self, key: str) -> None:
        if self._counters is not None:
            self._counters[key] = self._counters.get(key, 0) + 1

    def jump_tables(self):
        """The straight-run jump tables of this router's disabled mask.

        Built lazily on the first route (one accumulate scan per
        direction) and shared by the scalar straight-run advance and the
        batch engine of :mod:`repro.routing.engine`.  A session rebuild
        after ``add_faults`` normally skips this build entirely: the
        delta path of :func:`repro.routing.engine.transplant_engine_state`
        patches the previous router's tables instead.
        """
        if self._tables is None:
            from repro.routing.engine import JumpTables

            self._tables = JumpTables.from_disabled(self._disabled_mask)
            self._count("jump_rebuilds")
        return self._tables

    def packed_rings(self):
        """The batch kernel's packed ring arrays (lazily built, cached).

        Like :meth:`jump_tables`, a fresh pack only happens on the first
        batch route of a router the delta path could not seed from a
        predecessor.
        """
        if self._packed_rings is None:
            from repro.routing.engine import PackedRings

            self._packed_rings = PackedRings(self)
            self._count("ring_rebuilds")
        return self._packed_rings

    def region_geometry(self, region_index: int):
        """Boundary-ring geometry of one region (lazily resolved, cached).

        Goes through the attached session ring cache when there is one;
        the geometry of a region a fault update did not touch is already
        here, taken over from the predecessor router.
        """
        geometry = self._geometry.get(region_index)
        if geometry is None:
            nodes = self.region_nodes(region_index)
            if self._shared_rings is not None:
                geometry = self._shared_rings.geometry(nodes)
            else:
                from repro.routing.engine import RegionGeometry

                geometry = RegionGeometry(nodes)
            self._geometry[region_index] = geometry
        return geometry

    def _ring(self, region_index: int) -> List[Coord]:
        return self.region_geometry(region_index).ring

    def _ring_position(self, region_index: int, node: Coord) -> Optional[int]:
        """First position of *node* on the region's ring (``None`` if absent)."""
        return self.region_geometry(region_index).positions.get(node)

    def _box(self, region_index: int) -> Rectangle:
        return self.region_geometry(region_index).box

    @staticmethod
    def _orientation(message_type: MessageType, current: Coord, destination: Coord) -> Orientation:
        """Apply the orientation rules of Section 2.2."""
        if message_type in (MessageType.NS, MessageType.SN):
            return Orientation.CLOCKWISE
        above = current[1] > destination[1]
        below = current[1] < destination[1]
        if message_type is MessageType.WE:
            if above:
                return Orientation.CLOCKWISE
            if below:
                return Orientation.COUNTERCLOCKWISE
            return Orientation.CLOCKWISE
        # EW-bound: mirror image.
        if above:
            return Orientation.COUNTERCLOCKWISE
        if below:
            return Orientation.CLOCKWISE
        return Orientation.COUNTERCLOCKWISE

    def _passed_region(
        self,
        message_type: MessageType,
        node: Coord,
        destination: Coord,
        box: Rectangle,
    ) -> bool:
        """Whether the region no longer affects a message at *node*."""
        x, y = node
        if message_type is MessageType.WE:
            return x > box.max_x or x == destination[0]
        if message_type is MessageType.EW:
            return x < box.min_x or x == destination[0]
        if message_type is MessageType.SN:
            return y > box.max_y or y == destination[1]
        return y < box.min_y or y == destination[1]

    def _traverse(
        self,
        ring: List[Coord],
        entry_index: int,
        step: int,
        message_type: MessageType,
        destination: Coord,
        box: Rectangle,
    ) -> Tuple[Optional[List[Coord]], str]:
        """Walk *ring* from position *entry_index* in direction *step* until
        the region is cleared.

        Returns ``(hops, reason)``: the hop list when the traversal succeeds,
        or ``None`` plus a failure reason when it walks off the mesh, into
        another region, or all the way around without clearing the region.
        """
        index = entry_index
        hops: List[Coord] = []
        for _ in range(len(ring)):
            index = (index + step) % len(ring)
            node = ring[index]
            if not self.topology.contains(node):
                return None, "traversal left the mesh"
            if self.is_disabled(node):
                return None, "traversal obstructed by another region"
            hops.append(node)
            if self._passed_region(message_type, node, destination, box):
                follow_up = ecube_next_hop(node, destination)
                if follow_up is None or not self.is_disabled(follow_up):
                    return hops, ""
        return None, "could not clear the fault region"

    # -- routing ------------------------------------------------------------------

    def _walk(
        self,
        source: Coord,
        destination: Coord,
        path: Optional[List[Coord]],
        hops: int = 0,
        abnormal_hops: int = 0,
    ) -> Tuple[bool, int, int, str]:
        """The one routing loop behind :meth:`route` and :meth:`route_counts`
        of both built-in routers (see ``detours``).

        Appends every hop to *path* when one is given; with ``path=None``
        only the counters are tracked, which skips the per-hop list work
        that dominates long budget-bounded walks.  The loop's whole state
        is ``(current, hops, abnormal_hops)``: *hops* and *abnormal_hops*
        start it at a walk that has already taken that many hops to
        *source*.  Returns ``(delivered, hops, abnormal_hops, reason)``.

        A walk whose loop head comes back to a position is livelocked:
        the next step depends only on ``current`` and the destination until
        the hop budget truncates a straight run or ends the loop, so from
        there it repeats one cycle of ``c`` hops until the budget runs out.
        Every cycle holds a ring detour (straight runs only ever approach
        the destination), so a walk past an eighth of its budget records
        where its detours land, and the first landing it comes back to
        skips every whole cycle but the last one or two, appending their
        hops to *path*; ``livelock_skips`` counts the skips.  The cycles
        left and the budget stop run as they would have, so the outcome,
        the counts and the path are the unskipped walk's.  An eighth of
        the default budget, ``width + height`` hops, is longer than any
        minimal path, so a walk that arrives seldom gets there and pays
        one comparison per detour.
        """
        self.topology.validate(source)
        self.topology.validate(destination)
        if self.is_disabled(source):
            return False, hops, abnormal_hops, "source disabled"
        if self.is_disabled(destination):
            return False, hops, abnormal_hops, "destination disabled"

        tables = self.jump_tables()
        current = source
        dx, dy = destination
        max_hops = self.max_hops
        # Detour landings past an eighth of the budget -> (hops, abnormal
        # hops) there; the watch ends at the first landing seen twice.
        watch_from = max_hops // 8
        landings: Dict[Coord, Tuple[int, int]] = {}

        while current != destination and hops < max_hops:
            x, y = current
            # Normal mode: advance a whole straight run at once.  The jump
            # tables bound the run by the next blocked cell; the e-cube
            # turn point and the remaining hop budget bound it further.
            # The message type only matters when a region blocks the run,
            # so it is not recomputed at every hop.
            if x != dx:
                if dx > x:
                    sign, free = 1, int(tables.east[x, y]) - x - 1
                else:
                    sign, free = -1, x - int(tables.west[x, y]) - 1
                distance = abs(dx - x)
            else:
                if dy > y:
                    sign, free = 1, int(tables.north[x, y]) - y - 1
                else:
                    sign, free = -1, y - int(tables.south[x, y]) - 1
                distance = abs(dy - y)
            if free:
                run = min(distance, free, max_hops - hops)
                if x != dx:
                    if path is not None:
                        path.extend((x + sign * i, y) for i in range(1, run + 1))
                    current = (x + sign * run, y)
                else:
                    if path is not None:
                        path.extend((x, y + sign * i) for i in range(1, run + 1))
                    current = (x, y + sign * run)
                hops += run
                continue

            # Abnormal mode: traverse the ring of the blocking region.
            if not self.detours:
                reason = "blocked by a fault region (base e-cube has no detour)"
                return False, hops, abnormal_hops, reason
            nxt = (x + sign, y) if x != dx else (x, y + sign)
            message_type = (
                initial_message_type(current, destination)
                if x != dx
                else column_message_type(current, destination)
            )
            region_index = self.region_of(nxt)
            box = self._box(region_index)
            ring = self._ring(region_index)
            entry_index = self._ring_position(region_index, current)
            if entry_index is None:
                return (
                    False,
                    hops,
                    abnormal_hops,
                    "traversal entry point not on the region boundary",
                )
            orientation = self._orientation(message_type, current, destination)
            preferred = 1 if orientation is Orientation.CLOCKWISE else -1
            # A region touching the mesh border can only be circled on one
            # side; when the preferred orientation walks off the mesh (or
            # into another region), retry the opposite orientation, as a
            # real router on a border node would.
            detour, reason = None, "could not clear the fault region"
            for step in (preferred, -preferred):
                detour, reason = self._traverse(
                    ring, entry_index, step, message_type, destination, box
                )
                if detour is not None:
                    break
            if detour is None:
                return False, hops, abnormal_hops, reason
            if path is not None:
                path.extend(detour)
            hops += len(detour)
            abnormal_hops += len(detour)
            current = detour[-1]
            if hops >= max_hops:
                break
            if hops > watch_from:
                hops_then, abnormal_then = landings.setdefault(
                    current, (hops, abnormal_hops)
                )
                if hops_then == hops:
                    continue
                cycle = hops - hops_then
                # Every skipped cycle ends at least one cycle and one hop
                # short of the budget.
                skip = (max_hops - hops - 1) // cycle - 1
                if skip > 0:
                    if path is not None:
                        path.extend(path[-cycle:] * skip)
                    hops += skip * cycle
                    abnormal_hops += skip * (abnormal_hops - abnormal_then)
                    self._count("livelock_skips")
                watch_from = max_hops

        if current == destination:
            return True, hops, abnormal_hops, ""
        return False, hops, abnormal_hops, "hop budget exhausted"

    def route(self, source: Coord, destination: Coord) -> RouteResult:
        """Route one message and return the full hop-by-hop result."""
        path: List[Coord] = [source]
        delivered, _, abnormal_hops, reason = self._walk(source, destination, path)
        return RouteResult(
            source, destination, delivered, tuple(path), abnormal_hops, reason
        )

    def route_counts(
        self,
        source: Coord,
        destination: Coord,
        *,
        hops: int = 0,
        abnormal_hops: int = 0,
    ) -> Tuple[bool, int, int, str]:
        """Route one message, returning counters only (no path).

        Same loop as :meth:`route` (shared :meth:`_walk`), so the
        delivered flag, hop count, abnormal-hop count and failure reason
        are bit-identical by construction -- it merely skips
        materialising the hop-by-hop path.  A livelocked walk jumps its
        whole cycles towards the budget in both (see :meth:`_walk`).
        *hops* and *abnormal_hops* continue a walk that already took that
        many hops (that many of them abnormal) to reach *source*, a loop
        head of that walk: the batch engine of
        :mod:`repro.routing.engine` finishes each straggler this way from
        where its lockstep rounds stopped, and a straggler handed over
        mid-cycle finds its cycle from there.  Returns ``(delivered,
        hops, abnormal_hops, reason)``, the counts including the start
        state.
        """
        return self._walk(source, destination, None, hops, abnormal_hops)
