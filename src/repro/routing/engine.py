"""Vectorized lockstep batch routing engine.

The scalar :class:`~repro.routing.extended_ecube.ExtendedECubeRouter`
routes one message at a time, one Python loop iteration per hop -- clear,
and kept as the path-collecting / deadlock-check oracle, but far too slow
for the million-message sweeps the evaluation harness is growing towards.
This module routes an entire traffic batch *in lockstep*: every message is
a row of a frontier state array (position, hop count, abnormal-hop count,
outcome code), and each round of the kernel advances every still-active
message at once with whole-array NumPy operations.  Two ingredients make a
round O(active messages) instead of O(hops):

* **Straight-run jump tables** (:class:`JumpTables`): for every cell, the
  next blocked cell in each of the four directions, precomputed from the
  disabled mask with four ``minimum``/``maximum.accumulate`` scans.  A
  normal-mode e-cube message advances a whole straight run per round --
  ``min(distance to the turn point, distance to the next blocked cell,
  remaining hop budget)`` -- so its total round count is O(#turns +
  #region encounters), not O(path length).
* **Precomputed ring arrays** (:class:`RegionGeometry` /
  :class:`RingArrays`): per region, the boundary-ring coordinates as index
  arrays, a searchable entry-position table, and the geometric half of the
  Section 2.2 "passed the region" predicate per message type.  An
  abnormal-mode traversal then resolves as one vectorized lookup per
  (region, orientation, message-type) group: the ring sequence relative to
  each entry point is materialised as an index matrix and the first
  exit/failure positions fall out of two ``argmax`` reductions --
  including the opposite-orientation retry of border-hugging regions.

The kernel reproduces the scalar router's semantics *bit-identically*
(same per-message outcome, hop count, abnormal-hop count and failure
reason; asserted by the differential suite in
``tests/test_routing_engine.py`` and by ``benchmarks/bench_routing_engine.py``,
which refuses to report a speedup unless the aggregate stats match).

The call picks the engine (:func:`resolve_engine`): the batch kernel
whenever it can serve the request -- per-route results not requested and
the router one of the built-ins it understands -- and the per-message
scalar loop, :func:`route_scalar`, otherwise.  Tests and
``benchmarks/bench_routing_engine.py`` call :func:`route_scalar` by name
as the oracle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro import _array_ops
from repro.geometry.boundary import boundary_ring
from repro.geometry.rectangle import bounding_rectangle
from repro.routing.stats import RoutingStats
from repro.types import Coord

# -- message-type and outcome codes -------------------------------------------------

#: Integer codes of the four message classes (rows of ``RingArrays.geo_passed``).
MT_WE, MT_EW, MT_SN, MT_NS = 0, 1, 2, 3

#: Per-message outcome codes of :class:`BatchRouteOutcome`.
ACTIVE = 0
DELIVERED = 1
FAIL_SOURCE = 2
FAIL_DESTINATION = 3
FAIL_ENTRY = 4
FAIL_LEFT_MESH = 5
FAIL_OBSTRUCTED = 6
FAIL_NO_CLEAR = 7
FAIL_BUDGET = 8
FAIL_BLOCKED = 9

#: Outcome code -> the scalar router's failure-reason string (empty for
#: delivered messages), so reason histograms compare bit-identically.
REASONS: Dict[int, str] = {
    DELIVERED: "",
    FAIL_SOURCE: "source disabled",
    FAIL_DESTINATION: "destination disabled",
    FAIL_ENTRY: "traversal entry point not on the region boundary",
    FAIL_LEFT_MESH: "traversal left the mesh",
    FAIL_OBSTRUCTED: "traversal obstructed by another region",
    FAIL_NO_CLEAR: "could not clear the fault region",
    FAIL_BUDGET: "hop budget exhausted",
    FAIL_BLOCKED: "blocked by a fault region (base e-cube has no detour)",
}

#: Upper bound on the (messages x ring length) cells materialised per
#: traversal chunk; bounds the kernel's peak memory on huge groups.
_TRAVERSAL_CHUNK_CELLS = 1 << 18

#: When the active frontier shrinks to this many messages, the kernel
#: finishes them through the scalar router instead of paying a full
#: lockstep round per remaining straight run.  The long tail of a batch
#: is a handful of messages weaving between many regions; routing them
#: scalar is bit-identical (the scalar router *is* the reference
#: semantics) and turns hundreds of near-empty rounds into a few calls.
#: Benchmarked best around 4..16 on the 100x100 / 300x300 reference
#: scenarios (2 000 messages) with the counters-only scalar finish.
_SCALAR_FINISH_THRESHOLD = 8


# -- straight-run jump tables -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JumpTables:
    """Per-row / per-column next-blocked-cell tables of one disabled mask.

    ``east[x, y]`` is the smallest ``x' > x`` with ``(x', y)`` disabled
    (sentinel ``width`` when the run is clear to the border), and likewise
    for the other three directions (sentinels ``-1`` / ``height`` / ``-1``).
    The free-run length ahead of a cell is then one subtraction, so both
    the scalar router's straight-run advance and the batch kernel's
    normal-mode rounds read one table entry per run instead of probing the
    mask one hop at a time.
    """

    east: np.ndarray
    west: np.ndarray
    north: np.ndarray
    south: np.ndarray

    @classmethod
    def from_disabled(cls, disabled: np.ndarray) -> "JumpTables":
        """Build the four tables with the ``jump_tables`` array primitive."""
        east, west, north, south = _array_ops.active_ops().jump_tables(
            np.ascontiguousarray(disabled)
        )
        return cls(east=east, west=west, north=north, south=south)

    def stacked(self) -> np.ndarray:
        """The four tables as one ``(4, width, height)`` array.

        Lets the kernel gather every active message's next blocked cell
        with a single fancy index -- ``stacked[direction, x, y]`` --
        instead of four boolean-masked gathers per round.  Directions are
        ordered east, west, north, south.
        """
        return np.stack([self.east, self.west, self.north, self.south])

    def apply_fault_delta(
        self, disabled: np.ndarray, changed_x: np.ndarray, changed_y: np.ndarray
    ) -> "JumpTables":
        """Tables for *disabled*, re-deriving only the touched lines.

        ``east[x, y]`` / ``west[x, y]`` depend only on the cells of line
        *y*, and ``north`` / ``south`` only on column *x*; a fault update
        that changed the cells ``(changed_x, changed_y)`` therefore only
        needs the scan re-run on those lines and columns -- the sub-array
        ``disabled[:, ys]`` (respectively ``disabled[xs, :]``) goes
        through the same array primitive as a full build, so the result
        equals :meth:`from_disabled` bit for bit (asserted by the
        differential suite in ``tests/test_engine_deltas.py``).  The
        untouched lines are copied from this table.
        """
        xs = np.unique(np.asarray(changed_x, dtype=np.int64))
        ys = np.unique(np.asarray(changed_y, dtype=np.int64))
        east, west, north, south = self.east, self.west, self.north, self.south
        ops = _array_ops.active_ops()
        if ys.size:
            east, west = east.copy(), west.copy()
            sub_east, sub_west, _, _ = ops.jump_tables(
                np.ascontiguousarray(disabled[:, ys])
            )
            east[:, ys] = sub_east
            west[:, ys] = sub_west
        if xs.size:
            north, south = north.copy(), south.copy()
            _, _, sub_north, sub_south = ops.jump_tables(
                np.ascontiguousarray(disabled[xs, :])
            )
            north[xs, :] = sub_north
            south[xs, :] = sub_south
        return JumpTables(east=east, west=west, north=north, south=south)


# -- per-region ring geometry -------------------------------------------------------


class RingArrays:
    """The batch-kernel view of one region's boundary ring.

    Everything here depends only on the region's own shape and the mesh
    dimensions -- never on the surrounding disabled mask -- so the arrays
    are cached on the :class:`RegionGeometry` and shared across routers
    through the session ring cache.
    """

    __slots__ = (
        "shape",
        "ring_x",
        "ring_y",
        "on_mesh",
        "geo_passed",
        "entry_keys",
        "entry_positions",
    )

    def __init__(self, geometry: "RegionGeometry", width: int, height: int) -> None:
        ring = geometry.ring
        length = len(ring)
        self.shape = (width, height)
        self.ring_x = np.fromiter((node[0] for node in ring), np.int64, count=length)
        self.ring_y = np.fromiter((node[1] for node in ring), np.int64, count=length)
        self.on_mesh = (
            (self.ring_x >= 0)
            & (self.ring_x < width)
            & (self.ring_y >= 0)
            & (self.ring_y < height)
        )
        box = geometry.box
        # The geometric half of ``_passed_region`` per message type; the
        # destination-dependent half (``coord == destination coord``) is
        # OR-ed in per traversal group.
        self.geo_passed = np.stack(
            [
                self.ring_x > box.max_x,  # WE
                self.ring_x < box.min_x,  # EW
                self.ring_y > box.max_y,  # SN
                self.ring_y < box.min_y,  # NS
            ]
        )
        # Entry lookup: first ring position of every on-mesh ring node
        # (the scalar position map keeps the first occurrence too).
        positions = np.nonzero(self.on_mesh)[0]
        keys = self.ring_x[positions] * height + self.ring_y[positions]
        order = np.lexsort((positions, keys))
        keys, positions = keys[order], positions[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self.entry_keys = keys[first]
        self.entry_positions = positions[first]

    def __len__(self) -> int:
        return int(self.ring_x.size)


class RegionGeometry:
    """Boundary-ring geometry of one fault region, keyed by its node set.

    Carries exactly the per-region data the routers previously rebuilt
    lazily from scratch -- the clockwise boundary-ring walk, the
    first-occurrence ring position map and the bounding box -- plus the
    lazily built :class:`RingArrays` the batch kernel traverses.  All of
    it depends only on the region's own shape, so one geometry object
    serves every router built over the same region (see
    :class:`RegionRingCache`).
    """

    __slots__ = ("nodes", "ring", "positions", "box", "_arrays")

    def __init__(self, nodes: Iterable[Coord]) -> None:
        self.nodes: FrozenSet[Coord] = frozenset(nodes)
        self.ring: List[Coord] = boundary_ring(self.nodes)
        positions: Dict[Coord, int] = {}
        for position, member in enumerate(self.ring):
            positions.setdefault(member, position)
        self.positions = positions
        self.box = bounding_rectangle(self.nodes)
        self._arrays: Optional[RingArrays] = None

    def arrays(self, width: int, height: int) -> RingArrays:
        """The batch-kernel ring arrays for a ``width x height`` mesh."""
        if self._arrays is None or self._arrays.shape != (width, height):
            self._arrays = RingArrays(self, width, height)
        return self._arrays


class RegionRingCache:
    """A bounded cache of :class:`RegionGeometry`, keyed by region identity.

    Owned by :class:`repro.api.RoutingSession` and attached to every
    router it builds: a router rebuilt after ``add_faults`` then reuses
    the rings, position maps and bounding boxes of every region the
    update did not touch (region identity is the frozen node set, so a
    changed region misses naturally).  Evicts least-recently-used entries
    beyond *max_entries* so long fault-injection sessions stay bounded.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[FrozenSet[Coord], RegionGeometry]" = OrderedDict()
        self._counters = counters
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, key: str) -> None:
        if self._counters is not None:
            self._counters[key] = self._counters.get(key, 0) + 1

    def geometry(self, nodes: Iterable[Coord]) -> RegionGeometry:
        """Fetch (or build and remember) the geometry of one region."""
        key = frozenset(nodes)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("ring_misses")
            entry = RegionGeometry(key)
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        else:
            self.hits += 1
            self._count("ring_hits")
            self._entries.move_to_end(key)
        return entry


# -- per-message outcomes -----------------------------------------------------------


@dataclass(eq=False)
class BatchRouteOutcome:
    """Per-message outcome arrays of one lockstep batch route.

    ``status`` holds one outcome code per message (``DELIVERED`` or a
    ``FAIL_*`` code); ``hops`` / ``abnormal_hops`` the link traversals
    performed; ``minimal_hops`` the fault-free Manhattan distance the
    detour is measured against.  :meth:`fold_into` accumulates the arrays
    into a :class:`~repro.routing.stats.RoutingStats` exactly as the
    scalar per-message ``record`` loop would.
    """

    status: np.ndarray
    hops: np.ndarray
    abnormal_hops: np.ndarray
    minimal_hops: np.ndarray

    def __len__(self) -> int:
        return int(self.status.size)

    @property
    def delivered(self) -> np.ndarray:
        """Boolean mask of delivered messages."""
        return self.status == DELIVERED

    def reason_counts(self) -> Dict[str, int]:
        """Failure-reason histogram (scalar router's reason strings)."""
        codes, counts = np.unique(
            self.status[self.status > DELIVERED], return_counts=True
        )
        return {REASONS[int(code)]: int(count) for code, count in zip(codes, counts)}

    def fold_into(self, stats: RoutingStats) -> RoutingStats:
        """Accumulate the per-message outcomes into *stats* (vectorized)."""
        delivered = self.delivered
        num_delivered = int(np.count_nonzero(delivered))
        hops = self.hops[delivered]
        detours = hops - self.minimal_hops[delivered]
        stats.attempted += len(self)
        stats.delivered += num_delivered
        stats.failed += len(self) - num_delivered
        stats.total_hops += int(hops.sum())
        stats.total_detour += int(detours.sum())
        stats.minimal_routes += int(np.count_nonzero(detours == 0))
        stats.abnormal_routes += int(
            np.count_nonzero(self.abnormal_hops[delivered] > 0)
        )
        stats._deadlock_free = None
        return stats


# -- the lockstep kernel ------------------------------------------------------------


def supports_router(router: Any) -> bool:
    """Whether the batch kernel understands *router*'s routing semantics.

    Exactly the two built-in routers qualify (checked by concrete type, so
    a custom subclass with an overridden ``route`` falls back to the
    scalar engine instead of being silently misrouted).
    """
    from repro.routing.extended_ecube import ExtendedECubeRouter
    from repro.routing.registry import ECubeRouter

    return type(router) in (ECubeRouter, ExtendedECubeRouter)


def _pack_geo_bits(geo_passed: np.ndarray) -> np.ndarray:
    """Pack the ``(4, L)`` per-message-type passed flags into one uint8 bit
    per type -- a single gather plus a shift beats a two-array advanced
    index in the traversal scans."""
    bits = geo_passed[MT_WE].astype(np.uint8)
    for message_type in (MT_EW, MT_SN, MT_NS):
        bits |= geo_passed[message_type].astype(np.uint8) << message_type
    return bits


#: One region's immutable packed-ring arrays, keyed by the region's node
#: set: ``(ring_x, ring_y, off_mesh, geo_bits, entry_keys, entry_positions)``.
#: Everything here depends only on the region's own shape (the validity
#: against the surrounding disabled mask is recomputed at concatenation
#: time), so segments survive fault deltas unchanged.
RingSegment = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class PackedRings:
    """Encountered regions' ring arrays, concatenated for mixed gathers.

    A frontier round blocks messages on *different* regions with
    *different* orientations and message types; resolving them one
    (region, orientation, type) group at a time degenerates into tiny
    arrays and Python overhead.  Packing rings into flat arrays with
    per-region offsets lets one round resolve every blocked message in a
    single padded ``(messages x longest-ring)`` traversal, whatever mix
    of regions it hit.

    Packing is *incremental*: a region's ring is appended the first round
    a message actually blocks on it (:meth:`ensure`), so the kernel --
    like the scalar router -- never walks the ring of a region no
    message encounters.  The per-region geometry comes from the router's
    (possibly session-shared) :class:`RegionGeometry` objects, so ring
    walks are still reused across router rebuilds.

    Internally every packed region is held as a :data:`RingSegment` keyed
    by the region's frozen node set; the flat arrays are concatenated
    from the segments, and the only mask-dependent part -- which ring
    nodes a traversal may step on -- is re-gathered from the router's
    disabled mask at concatenation time.  That split is what makes
    :meth:`apply_fault_delta` possible: after a fault update, every
    region whose node set survived keeps its segment (no ring walk, no
    re-packing), and only the validity gather is recomputed.
    """

    __slots__ = (
        "shape",
        "start",
        "length",
        "packed",
        "ring_x",
        "ring_y",
        "valid",
        "off_mesh",
        "geo_bits",
        "entry_keys",
        "entry_positions",
        "_segments",
        "_order",
        "_total",
        "_dirty",
    )

    def __init__(self, router: Any) -> None:
        width, height = router.enabled_mask.shape
        self.shape = (width, height)
        num_regions = len(router._regions)
        self.start = np.zeros(num_regions, dtype=np.int64)
        self.length = np.zeros(num_regions, dtype=np.int64)
        self.packed = np.zeros(num_regions, dtype=bool)
        self._segments: Dict[FrozenSet[Coord], RingSegment] = {}
        #: ``(region index, node set)`` pairs in packing order; the index
        #: half is only valid for this instance's router.
        self._order: List[Tuple[int, FrozenSet[Coord]]] = []
        self._total = 0
        #: Adopted segments whose flat arrays have not been concatenated
        #: yet; the rebuild is deferred to the first :meth:`ensure` so a
        #: fault delta never pays for regions no message routes through.
        self._dirty = False
        empty = np.empty(0, dtype=np.int64)
        self.ring_x = self.ring_y = self.entry_keys = self.entry_positions = empty
        self.valid = self.off_mesh = empty.astype(bool)
        self.geo_bits = empty.astype(np.uint8)

    def _segment(self, router: Any, region: int) -> RingSegment:
        """Fetch (or build from the region geometry) one region's segment."""
        nodes = router._regions[region]
        segment = self._segments.get(nodes)
        if segment is None:
            arrays = router.region_geometry(region).arrays(*self.shape)
            segment = (
                arrays.ring_x,
                arrays.ring_y,
                ~arrays.on_mesh,
                _pack_geo_bits(arrays.geo_passed),
                arrays.entry_keys,
                arrays.entry_positions,
            )
            self._segments[nodes] = segment
        return segment

    def ensure(self, router: Any, regions: np.ndarray) -> None:
        """Append any of *regions* not packed yet and extend the arrays.

        At most one array update per kernel round (all of the round's
        new regions are appended together); rounds whose regions are all
        known cost one boolean gather.  New regions *extend* the
        existing flat arrays in place -- the sorted entry table absorbs
        them with a binary-search merge -- so a round that encounters
        one new region never re-concatenates, re-sorts or re-validates
        the regions already packed.  The full :meth:`_rebuild` only runs
        when a fault delta invalidated the concatenation (the disabled
        mask changed under every packed node).
        """
        missing = regions[~self.packed[regions]]
        if missing.size == 0:
            if self._dirty:
                self._rebuild(router)
                self._dirty = False
            return
        append_from = len(self._order)
        for region in np.unique(missing).tolist():
            segment = self._segment(router, region)
            self.start[region] = self._total
            self.length[region] = segment[0].size
            self.packed[region] = True
            self._order.append((region, router._regions[region]))
            self._total += segment[0].size
        if self._dirty or append_from == 0:
            self._rebuild(router)
        else:
            self._append(router, append_from)
        self._dirty = False

    def _append(self, router: Any, append_from: int) -> None:
        """Extend the flat arrays with the segments packed at
        ``_order[append_from:]``, leaving the already-built prefix alone.

        The validity gather runs over the new ring nodes only (the
        disabled mask is fixed for this router instance, so the prefix's
        gather stays correct), and the entry table -- kept sorted for
        :meth:`entries_of` -- merges the new keys in by binary search
        instead of re-sorting the whole table.
        """
        width, height = self.shape
        cells = width * height
        fresh = self._order[append_from:]
        segments = [self._segments[nodes] for _, nodes in fresh]
        new_x = np.concatenate([s[0] for s in segments])
        new_y = np.concatenate([s[1] for s in segments])
        new_off = np.concatenate([s[2] for s in segments])
        self.ring_x = np.concatenate([self.ring_x, new_x])
        self.ring_y = np.concatenate([self.ring_y, new_y])
        self.off_mesh = np.concatenate([self.off_mesh, new_off])
        self.geo_bits = np.concatenate(
            [self.geo_bits] + [s[3] for s in segments]
        )
        keys = np.concatenate(
            [region * cells + s[4] for (region, _), s in zip(fresh, segments)]
        )
        positions = np.concatenate([s[5] for s in segments])
        order = np.argsort(keys)
        keys, positions = keys[order], positions[order]
        insert_at = np.searchsorted(self.entry_keys, keys)
        self.entry_keys = np.insert(self.entry_keys, insert_at, keys)
        self.entry_positions = np.insert(
            self.entry_positions, insert_at, positions
        )
        clip_x = np.clip(new_x, 0, width - 1)
        clip_y = np.clip(new_y, 0, height - 1)
        disabled = ~router.enabled_mask
        self.valid = np.concatenate(
            [self.valid, ~new_off & ~disabled[clip_x, clip_y]]
        )

    def _rebuild(self, router: Any) -> None:
        """Concatenate the packed segments into the kernel's flat arrays.

        The entry table gets one sort to stay binary-searchable (regions
        pack in encounter order), and the validity of every packed ring
        node is gathered from the router's *current* disabled mask --
        the one per-node property that depends on the other regions.
        """
        width, height = self.shape
        cells = width * height
        segments = [self._segments[nodes] for _, nodes in self._order]
        self.ring_x = np.concatenate([s[0] for s in segments])
        self.ring_y = np.concatenate([s[1] for s in segments])
        self.off_mesh = np.concatenate([s[2] for s in segments])
        self.geo_bits = np.concatenate([s[3] for s in segments])
        keys = np.concatenate(
            [region * cells + s[4] for (region, _), s in zip(self._order, segments)]
        )
        positions = np.concatenate([s[5] for s in segments])
        order = np.argsort(keys)
        self.entry_keys = keys[order]
        self.entry_positions = positions[order]
        clip_x = np.clip(self.ring_x, 0, width - 1)
        clip_y = np.clip(self.ring_y, 0, height - 1)
        disabled = ~router.enabled_mask
        self.valid = ~self.off_mesh & ~disabled[clip_x, clip_y]

    def apply_fault_delta(self, router: Any) -> "PackedRings":
        """Packed rings for *router*, reusing every surviving region's segment.

        Regions are matched to the new router by node-set identity: a
        region a fault update did not touch keeps its packed ring arrays
        (re-keyed to its possibly-shifted region index) and only pays the
        validity gather against the new disabled mask; changed or new
        regions pack lazily on first encounter, as always.  Segments of
        vanished regions are dropped so long fault-churn sessions stay
        bounded.  The concatenation itself is deferred to the first
        :meth:`ensure`, so applying a delta is O(surviving regions) dict
        work and routing never rebuilds arrays for regions it does not
        touch.  The result is bit-identical to a freshly packed
        :class:`PackedRings` over the same encounter sequence (asserted
        by ``tests/test_engine_deltas.py``).
        """
        fresh = PackedRings(router)
        index_of = {nodes: index for index, nodes in enumerate(router._regions)}
        fresh._segments = {
            nodes: segment
            for nodes, segment in self._segments.items()
            if nodes in index_of
        }
        for _, nodes in self._order:
            region = index_of.get(nodes)
            if region is None:
                continue
            segment = fresh._segments[nodes]
            fresh.start[region] = fresh._total
            fresh.length[region] = segment[0].size
            fresh.packed[region] = True
            fresh._order.append((region, nodes))
            fresh._total += segment[0].size
        fresh._dirty = bool(fresh._order)
        return fresh

    def entries_of(
        self, region: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Ring-relative entry position per ``(region, node)`` (``-1`` absent)."""
        if self.entry_keys.size == 0:
            return np.full(region.shape, -1, dtype=np.int64)
        cells = self.shape[0] * self.shape[1]
        keys = region * cells + x * self.shape[1] + y
        found_at = np.minimum(
            np.searchsorted(self.entry_keys, keys), self.entry_keys.size - 1
        )
        return np.where(
            self.entry_keys[found_at] == keys, self.entry_positions[found_at], -1
        )


#: Lanes scanned by the first traversal pass.  Most detours exit (or
#: fail) within a handful of ring hops, so a short window resolves the
#: bulk of a round; only rows with neither an exit nor a failure inside
#: the window pay for the full ring scan.
_TRAVERSAL_WINDOW = 16


def _scan_lanes(
    packed: PackedRings,
    disabled: np.ndarray,
    message_type: np.ndarray,
    step: np.ndarray,
    entry: np.ndarray,
    dest_x: np.ndarray,
    dest_y: np.ndarray,
    lengths: np.ndarray,
    starts: np.ndarray,
    lane_lo: int,
    lane_hi: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan ring lanes ``lane_lo+1 .. lane_hi`` of every row at once.

    A lane *k* is the ring node *k* steps from the row's entry point in
    its travel direction.  Returns ``(has_exit, first_exit, has_fail,
    first_fail)`` with 1-based absolute lane numbers: the first exit
    position (node passed the region *and* the e-cube follow-up hop is
    clear -- :meth:`ExtendedECubeRouter._passed_region` semantics) and
    the first failure position (node off the mesh or inside another
    region).  Lanes beyond a row's own ring length are masked out.

    The scan itself is an array primitive
    (:attr:`repro._array_ops.ArrayOps.scan_lanes`): it materialises the
    padded ``(rows x lanes)`` matrix and argmax-reduces it.  The loop-nest
    reference of :mod:`repro._array_loops` walks each row's lanes instead.
    """
    return _array_ops.active_ops().scan_lanes(
        packed.ring_x,
        packed.ring_y,
        packed.valid,
        packed.geo_bits,
        packed.shape[0],
        packed.shape[1],
        disabled,
        message_type,
        step,
        entry,
        dest_x,
        dest_y,
        lengths,
        starts,
        lane_lo,
        lane_hi,
    )


def _traverse_packed(
    packed: PackedRings,
    disabled: np.ndarray,
    region: np.ndarray,
    message_type: np.ndarray,
    step: np.ndarray,
    entry: np.ndarray,
    dest_x: np.ndarray,
    dest_y: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one round's ring traversals for a region-mixed message set.

    Rows may block on different regions, orientations and message types.
    A short windowed :func:`_scan_lanes` pass resolves the typical rows;
    rows with neither an exit nor a failure inside the window re-scan the
    rest of their ring.  Everything is chunked so peak memory stays
    bounded.  Returns ``(ok, hops, landing_x, landing_y, fail_code)``
    arrays over the set (landing and failure fields are only meaningful
    where ``ok`` / a failure says so).
    """
    count = entry.size
    lengths = packed.length[region]
    starts = packed.start[region]
    has_exit = np.zeros(count, dtype=bool)
    has_fail = np.zeros(count, dtype=bool)
    first_exit = np.zeros(count, dtype=np.int64)
    first_fail = np.zeros(count, dtype=np.int64)
    longest = int(lengths.max()) if count else 0
    window = min(_TRAVERSAL_WINDOW, longest)
    chunk = max(1, _TRAVERSAL_CHUNK_CELLS // max(1, window))
    for chunk_start in range(0, count, chunk):
        rows = slice(chunk_start, min(chunk_start + chunk, count))
        (
            has_exit[rows],
            first_exit[rows],
            has_fail[rows],
            first_fail[rows],
        ) = _scan_lanes(
            packed, disabled, message_type[rows], step[rows], entry[rows],
            dest_x[rows], dest_y[rows], lengths[rows], starts[rows],
            0, window,
        )
    unresolved = np.nonzero(~has_exit & ~has_fail & (lengths > window))[0]
    if unresolved.size:
        tail_longest = int(lengths[unresolved].max())
        chunk = max(1, _TRAVERSAL_CHUNK_CELLS // max(1, tail_longest))
        for chunk_start in range(0, unresolved.size, chunk):
            rows = unresolved[chunk_start : chunk_start + chunk]
            (
                has_exit[rows],
                first_exit[rows],
                has_fail[rows],
                first_fail[rows],
            ) = _scan_lanes(
                packed, disabled, message_type[rows], step[rows], entry[rows],
                dest_x[rows], dest_y[rows], lengths[rows], starts[rows],
                window, tail_longest,
            )
    ok = has_exit & (~has_fail | (first_exit < first_fail))
    # Landing / failing nodes recomputed from the winning lane numbers --
    # no per-lane matrices survive the scans.
    landing = starts + (entry + step * first_exit) % lengths
    failing = starts + (entry + step * first_fail) % lengths
    fail_code = np.where(
        has_fail,
        np.where(packed.off_mesh[failing], FAIL_LEFT_MESH, FAIL_OBSTRUCTED),
        FAIL_NO_CLEAR,
    ).astype(np.int8)
    return ok, first_exit, packed.ring_x[landing], packed.ring_y[landing], fail_code


#: Failure-reason string -> outcome code (the inverse of :data:`REASONS`),
#: used when the scalar router finishes a batch's straggler tail.
_REASON_CODES = {reason: code for code, reason in REASONS.items() if code != DELIVERED}


def _finish_scalar(
    router: Any,
    live: np.ndarray,
    src_x: np.ndarray,
    src_y: np.ndarray,
    dst_x: np.ndarray,
    dst_y: np.ndarray,
    status: np.ndarray,
    hops: np.ndarray,
    abnormal: np.ndarray,
) -> None:
    """Route the remaining frontier through the scalar router (the oracle).

    Replays each straggler from its source -- the router is deterministic,
    so the outcome equals continuing the lockstep trajectory -- and writes
    the per-message fields the kernel would have produced.  Uses the
    counters-only ``route_counts`` entry point: stragglers walk long
    budget-bounded paths whose hop-by-hop materialisation nobody reads.
    """
    for message in live.tolist():
        delivered, taken, abnormal_taken, reason = router.route_counts(
            (int(src_x[message]), int(src_y[message])),
            (int(dst_x[message]), int(dst_y[message])),
        )
        status[message] = DELIVERED if delivered else _REASON_CODES[reason]
        hops[message] = taken
        abnormal[message] = abnormal_taken


def route_batch(
    router: Any,
    batch: Any,
    *,
    scalar_finish: Optional[int] = None,
) -> BatchRouteOutcome:
    """Route every message of *batch* through *router* in lockstep.

    *router* must be one of the built-in routers (see
    :func:`supports_router`); *batch* is a
    :class:`~repro.routing.traffic.TrafficBatch` (or anything exposing
    ``as_arrays()``).  The hop budget is the router's own ``max_hops``
    (cap it at router construction, via ``ExtendedECubeOptions``), so the
    lockstep rounds and the scalar tail always agree on it.  Per-message
    outcomes -- including hop counts, abnormal-hop counts and the scalar
    router's failure reasons -- are bit-identical to routing each pair
    through ``router.route``.

    *scalar_finish* overrides the frontier size below which the kernel
    hands the straggler tail to the scalar router (default
    ``_SCALAR_FINISH_THRESHOLD``; ``0`` forces a pure lockstep run, which
    the differential tests use to exercise the kernel on small batches).
    """
    from repro.routing.registry import ECubeRouter

    if not supports_router(router):
        raise ValueError(
            "the batch engine only understands the built-in routers "
            "(ECubeRouter / ExtendedECubeRouter); route this batch with "
            "the scalar engine instead"
        )
    detours = type(router) is not ECubeRouter
    disabled = ~router.enabled_mask
    width, height = disabled.shape
    budget_cap = router.max_hops
    stacked_tables = getattr(router, "_jump_stack", None)
    if stacked_tables is None:
        stacked_tables = router._jump_stack = router.jump_tables().stacked()
    region_index = router.region_index

    src_x, src_y, dst_x, dst_y = (
        np.asarray(axis, dtype=np.int64) for axis in batch.as_arrays()
    )
    total = int(src_x.size)
    status = np.zeros(total, dtype=np.int8)
    hops = np.zeros(total, dtype=np.int64)
    abnormal = np.zeros(total, dtype=np.int64)
    minimal = np.abs(src_x - dst_x) + np.abs(src_y - dst_y)
    outcome = BatchRouteOutcome(status, hops, abnormal, minimal)
    if total == 0:
        return outcome

    source_disabled = disabled[src_x, src_y]
    status[source_disabled] = FAIL_SOURCE
    destination_disabled = ~source_disabled & disabled[dst_x, dst_y]
    status[destination_disabled] = FAIL_DESTINATION

    # Frontier state, compacted to the still-active messages every round.
    live = np.nonzero(status == ACTIVE)[0]
    cur_x = src_x[live].copy()
    cur_y = src_y[live].copy()
    to_x = dst_x[live].copy()
    to_y = dst_y[live].copy()
    live_hops = np.zeros(live.size, dtype=np.int64)
    live_abnormal = np.zeros(live.size, dtype=np.int64)
    packed: Optional[PackedRings] = None
    finish_threshold = (
        _SCALAR_FINISH_THRESHOLD if scalar_finish is None else scalar_finish
    )

    def finalize(done: np.ndarray, codes: np.ndarray) -> None:
        indices = live[done]
        status[indices] = codes
        hops[indices] = live_hops[done]
        abnormal[indices] = live_abnormal[done]

    def compact(keep: np.ndarray) -> None:
        nonlocal live, cur_x, cur_y, to_x, to_y, live_hops, live_abnormal
        live = live[keep]
        cur_x, cur_y = cur_x[keep], cur_y[keep]
        to_x, to_y = to_x[keep], to_y[keep]
        live_hops, live_abnormal = live_hops[keep], live_abnormal[keep]

    while live.size:
        if live.size <= finish_threshold:
            _finish_scalar(
                router, live, src_x, src_y, dst_x, dst_y, status, hops, abnormal
            )
            break
        # -- terminal checks (same order as the scalar loop head) ------------
        arrived = (cur_x == to_x) & (cur_y == to_y)
        if detours:
            over_budget = ~arrived & (live_hops + 1 > budget_cap)
        else:
            # The base e-cube router has no hop budget (its paths are
            # minimal, always far below the default cap).
            over_budget = np.zeros(live.size, dtype=bool)
        done = arrived | over_budget
        if done.any():
            finalize(
                done,
                np.where(arrived[done], DELIVERED, FAIL_BUDGET).astype(np.int8),
            )
            compact(~done)
            if not live.size:
                break

        # -- normal mode: advance whole straight runs ------------------------
        x_phase = cur_x != to_x
        along = np.where(x_phase, to_x - cur_x, to_y - cur_y)
        sign = np.sign(along)
        dist = np.abs(along)
        # Direction index into the stacked jump tables: 0 east, 1 west,
        # 2 north, 3 south.
        direction = np.where(x_phase, 0, 2) + (sign < 0)
        coordinate = np.where(x_phase, cur_x, cur_y)
        next_block = stacked_tables[direction, cur_x, cur_y]
        free = np.where(sign > 0, next_block - coordinate, coordinate - next_block) - 1
        if detours:
            run = np.minimum(dist, np.minimum(free, budget_cap - live_hops))
        else:
            run = np.minimum(dist, free)
        run = np.where(free > 0, run, 0)
        cur_x = cur_x + np.where(x_phase, sign * run, 0)
        cur_y = cur_y + np.where(x_phase, 0, sign * run)
        live_hops = live_hops + run
        # A message whose run was truncated by a blocked cell (not by the
        # turn point or the hop budget) sits adjacent to the block now --
        # its next scalar iteration would enter abnormal mode, so handle
        # it this round instead of paying another round to rediscover it.
        at_wall = (run == free) & (run < dist)
        if detours:
            blocked = at_wall & (live_hops < budget_cap)
        else:
            blocked = at_wall
        if not blocked.any():
            continue
        if not detours:
            finalize(blocked, np.full(int(blocked.sum()), FAIL_BLOCKED, np.int8))
            compact(~blocked)
            continue

        # -- abnormal mode: one packed traversal for the whole round ---------
        if packed is None:
            packed = router.packed_rings()
        rows = np.nonzero(blocked)[0]
        at_x, at_y = cur_x[rows], cur_y[rows]
        go_x, go_y = to_x[rows], to_y[rows]
        row_phase = x_phase[rows]
        row_sign = sign[rows]
        next_x = np.where(row_phase, at_x + row_sign, at_x)
        next_y = np.where(row_phase, at_y, at_y + row_sign)
        regions = region_index[next_x, next_y].astype(np.int64)
        message_type = np.where(
            row_phase,
            np.where(row_sign > 0, MT_WE, MT_EW),
            np.where(row_sign > 0, MT_SN, MT_NS),
        )
        # Orientation rules of Section 2.2 (+1 clockwise, -1 counter-).
        below = at_y < go_y
        preferred = np.ones(rows.size, dtype=np.int64)
        preferred[(message_type == MT_WE) & below] = -1
        preferred[message_type == MT_EW] = -1
        preferred[(message_type == MT_EW) & below] = 1

        new_x, new_y = at_x.copy(), at_y.copy()
        gained = np.zeros(rows.size, dtype=np.int64)
        fail_code = np.zeros(rows.size, dtype=np.int8)

        packed.ensure(router, regions)
        entry = packed.entries_of(regions, at_x, at_y)
        missing = entry < 0
        if missing.any():
            fail_code[missing] = FAIL_ENTRY
        walkers = np.nonzero(~missing)[0]
        if walkers.size:
            ok, taken, land_x, land_y, code = _traverse_packed(
                packed, disabled, regions[walkers], message_type[walkers],
                preferred[walkers], entry[walkers], go_x[walkers], go_y[walkers],
            )
            # A region touching the mesh border can only be circled on one
            # side: retry the opposite orientation, as the scalar does.
            if not ok.all():
                retry = np.nonzero(~ok)[0]
                again = walkers[retry]
                ok2, taken2, land_x2, land_y2, code2 = _traverse_packed(
                    packed, disabled, regions[again], message_type[again],
                    -preferred[again], entry[again], go_x[again], go_y[again],
                )
                ok[retry] = ok2
                taken[retry] = np.where(ok2, taken2, taken[retry])
                land_x[retry] = np.where(ok2, land_x2, land_x[retry])
                land_y[retry] = np.where(ok2, land_y2, land_y[retry])
                # The scalar reports the reason of the *last* traversal.
                code[retry] = code2
            succeeded = walkers[ok]
            new_x[succeeded] = land_x[ok]
            new_y[succeeded] = land_y[ok]
            gained[succeeded] = taken[ok]
            fail_code[walkers[~ok]] = code[~ok]

        failed_rows = fail_code > 0
        if failed_rows.any():
            finalize_at = rows[failed_rows]
            indices = live[finalize_at]
            status[indices] = fail_code[failed_rows]
            hops[indices] = live_hops[finalize_at]
            abnormal[indices] = live_abnormal[finalize_at]
        moved = rows[~failed_rows]
        cur_x[moved] = new_x[~failed_rows]
        cur_y[moved] = new_y[~failed_rows]
        live_hops[moved] += gained[~failed_rows]
        live_abnormal[moved] += gained[~failed_rows]
        if failed_rows.any():
            keep = np.ones(live.size, dtype=bool)
            keep[rows[failed_rows]] = False
            compact(keep)
    return outcome


# -- incremental engine deltas ------------------------------------------------------


def transplant_engine_state(old_router: Any, new_router: Any) -> bool:
    """Delta-patch *new_router*'s engine state from *old_router*'s.

    Called by :class:`repro.api.RoutingSession` when a fault update
    forces a router rebuild: instead of letting the new router re-derive
    its jump tables and packed rings from scratch, the old router's are
    carried over with :meth:`JumpTables.apply_fault_delta` (only the
    rows/columns containing changed cells re-scanned) and
    :meth:`PackedRings.apply_fault_delta` (only changed regions dropped;
    surviving rings stay packed).  Lazily-unbuilt state on the old router
    stays unbuilt on the new one.  Returns whether anything was
    transplanted.  The patched state is bit-identical to a full rebuild
    -- that is the whole contract, enforced by
    ``tests/test_engine_deltas.py`` and ``benchmarks/bench_serve.py``.
    """
    if type(old_router) is not type(new_router):
        return False
    if old_router._disabled_mask.shape != new_router._disabled_mask.shape:
        return False
    transplanted = False
    old_tables = old_router._tables
    if old_tables is not None:
        changed_x, changed_y = np.nonzero(
            old_router._disabled_mask != new_router._disabled_mask
        )
        if changed_x.size:
            new_router._tables = old_tables.apply_fault_delta(
                new_router._disabled_mask, changed_x, changed_y
            )
        else:
            # The update happened entirely inside already-disabled regions
            # (or re-enabled nothing the construction had kept disabled):
            # the tables are still exact.
            new_router._tables = old_tables
        transplanted = True
    old_packed = old_router._packed_rings
    if old_packed is not None:
        new_router._packed_rings = old_packed.apply_fault_delta(new_router)
        transplanted = True
    return transplanted


# -- engine selection ---------------------------------------------------------------

#: A runner routes one batch into *stats*: ``(router, batch, stats) -> stats``.
Runner = Callable[[Any, Any, RoutingStats], RoutingStats]


@dataclass(frozen=True)
class EngineSpec:
    """One routing engine: the ``stats.engine`` label and its runner."""

    key: str
    runner: Runner


def route_scalar(router: Any, batch: Any, stats: RoutingStats) -> RoutingStats:
    """Route *batch* one message at a time through ``router.route``.

    The oracle the batch kernel is pinned against, and the engine of every
    call the kernel cannot serve (per-route results, custom routers).
    """
    for source, destination in batch.pairs():
        stats.record(router.route(source, destination))
    return stats


def _run_batch(router: Any, batch: Any, stats: RoutingStats) -> RoutingStats:
    if stats.collect_results:
        raise ValueError(
            "the batch engine does not materialise per-route results; "
            "route collect_results / check_deadlock runs with route_scalar"
        )
    return route_batch(router, batch).fold_into(stats)


SCALAR_ENGINE = EngineSpec("scalar", route_scalar)
BATCH_ENGINE = EngineSpec("batch", _run_batch)


def resolve_engine(router: Any, collect_results: bool = False) -> EngineSpec:
    """The engine that routes one batch through *router*.

    The batch kernel when the call collects no per-route results and the
    kernel understands the router (:func:`supports_router`), the scalar
    loop otherwise.  Both give bit-identical statistics, so the choice is
    the call's, never an option.
    """
    if not collect_results and supports_router(router):
        return BATCH_ENGINE
    return SCALAR_ENGINE
