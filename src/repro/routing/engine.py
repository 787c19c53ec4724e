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
  disabled mask with four ``minimum``/``maximum.accumulate`` scans and
  stored once as one ``(4, width, height)`` stack.  A normal-mode e-cube
  message advances a whole straight run per leg -- ``min(distance to
  the turn point, distance to the next blocked cell, remaining hop
  budget)`` -- and a round runs both legs (X, then Y) before it
  traverses rings, so a message's round count is O(#region encounters),
  not O(path length).
* **Precomputed ring arrays** (:class:`RegionGeometry` /
  :class:`RingArrays`), one record per region: the boundary-ring
  coordinates as index arrays, a searchable entry-position table, and the
  geometric half of the Section 2.2 "passed the region" predicate packed
  into ``geo_bits``, one bit per message type.  :class:`PackedRings`
  concatenates the records of the regions messages block on, so an
  abnormal-mode traversal resolves as one padded lookup over the whole
  round: the ring sequence relative to each entry point is scanned lane
  by lane, in stages of growing width, and the first exit/failure
  positions fall out of two ``argmax`` reductions -- including the
  opposite-orientation retry of border-hugging regions.

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

#: Integer codes of the four message classes (bits of ``RingArrays.geo_bits``).
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
#: is a handful of messages weaving between many regions; continuing them
#: scalar from where the lockstep stopped is bit-identical (the scalar
#: router *is* the reference semantics) and turns hundreds of near-empty
#: rounds into a few calls.
#: Benchmarked best around 4..16 on the 100x100 / 300x300 reference
#: scenarios (2 000 messages) with the counters-only scalar finish.
_SCALAR_FINISH_THRESHOLD = 8


# -- straight-run jump tables -------------------------------------------------------


class JumpTables:
    """Per-row / per-column next-blocked-cell tables of one disabled mask.

    ``east[x, y]`` is the smallest ``x' > x`` with ``(x', y)`` disabled
    (sentinel ``width`` when the run is clear to the border), and likewise
    for the other three directions (sentinels ``-1`` / ``height`` / ``-1``).
    The free-run length ahead of a cell is then one subtraction, so both
    the scalar router's straight-run advance and the batch kernel's
    normal-mode rounds read one table entry per run instead of probing the
    mask one hop at a time.

    The tables are stored once, as ``stack``, a ``(4, width, height)``
    array in the order east, west, north, south; ``east`` .. ``south``
    are views of its planes.  The kernel gathers every active message's
    next blocked cell with a single fancy index, ``stack[direction, x, y]``.
    """

    __slots__ = ("stack", "east", "west", "north", "south")

    def __init__(self, stack: np.ndarray) -> None:
        self.stack = stack
        self.east, self.west, self.north, self.south = stack

    @classmethod
    def from_disabled(cls, disabled: np.ndarray) -> "JumpTables":
        """Build the four tables with the ``jump_tables`` array primitive."""
        return cls(
            np.stack(_array_ops.active_ops().jump_tables(np.ascontiguousarray(disabled)))
        )

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
        untouched lines are copied from this table's stack.
        """
        xs = np.unique(np.asarray(changed_x, dtype=np.int64))
        ys = np.unique(np.asarray(changed_y, dtype=np.int64))
        patched = JumpTables(self.stack.copy())
        ops = _array_ops.active_ops()
        if ys.size:
            east, west, _, _ = ops.jump_tables(np.ascontiguousarray(disabled[:, ys]))
            patched.east[:, ys] = east
            patched.west[:, ys] = west
        if xs.size:
            _, _, north, south = ops.jump_tables(np.ascontiguousarray(disabled[xs, :]))
            patched.north[xs, :] = north
            patched.south[xs, :] = south
        return patched


# -- per-region ring geometry -------------------------------------------------------


class RingArrays:
    """The batch-kernel view of one region's boundary ring.

    ``ring_x`` / ``ring_y`` hold the ring's coordinates and ``off_mesh``
    flags its nodes outside the mesh.  ``geo_bits`` packs the geometric
    half of the Section 2.2 "passed the region" predicate into one bit per
    message type (bit ``MT_*``): a single gather plus a shift beats a
    two-array advanced index in the traversal scans.  ``entry_keys`` /
    ``entry_positions`` map every on-mesh ring node to its first ring
    position, sorted by node.  Everything here depends only on the
    region's own shape and the mesh dimensions -- never on the
    surrounding disabled mask -- so the arrays are cached on the
    :class:`RegionGeometry`, carried across router rebuilds with it, and
    packed as they are by :class:`PackedRings`.
    """

    __slots__ = (
        "shape",
        "ring_x",
        "ring_y",
        "off_mesh",
        "geo_bits",
        "entry_keys",
        "entry_positions",
    )

    def __init__(self, geometry: "RegionGeometry", width: int, height: int) -> None:
        ring = geometry.ring
        length = len(ring)
        self.shape = (width, height)
        self.ring_x = np.fromiter((node[0] for node in ring), np.int64, count=length)
        self.ring_y = np.fromiter((node[1] for node in ring), np.int64, count=length)
        on_mesh = (
            (self.ring_x >= 0)
            & (self.ring_x < width)
            & (self.ring_y >= 0)
            & (self.ring_y < height)
        )
        self.off_mesh = ~on_mesh
        box = geometry.box
        # The destination-dependent half of ``_passed_region``
        # (``coord == destination coord``) is OR-ed in per traversal.
        self.geo_bits = (
            (self.ring_x > box.max_x).astype(np.uint8) << MT_WE
            | (self.ring_x < box.min_x).astype(np.uint8) << MT_EW
            | (self.ring_y > box.max_y).astype(np.uint8) << MT_SN
            | (self.ring_y < box.min_y).astype(np.uint8) << MT_NS
        )
        # Entry lookup: first ring position of every on-mesh ring node
        # (the scalar position map keeps the first occurrence too).
        positions = np.nonzero(on_mesh)[0]
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
    router it builds.  A router rebuilt after ``add_faults`` takes the
    geometry of every region the update did not touch straight from its
    predecessor (:func:`transplant_engine_state`), so only the regions the
    update changed come here: a node set seen before (a repair restoring
    an earlier region) hits, a new one misses.  Region identity is the
    frozen node set.  Evicts least-recently-used entries beyond
    *max_entries*, so a long fault-injection session keeps a bounded
    working set: a daemon under random churn leaves about 0.6 new
    geometries per mutation that never recur, each about 4 KiB, while a
    miss costs only one ring walk of the region.
    """

    def __init__(
        self,
        max_entries: int = 512,
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

    Every packed region is one ``(region index, RingArrays)`` entry of
    ``_order``, in packing order; the flat arrays are concatenated from
    those records, and the only mask-dependent part -- which ring nodes a
    traversal may step on -- is gathered from the router's disabled mask
    at concatenation time.  That split is what makes
    :meth:`apply_fault_delta` possible: after a fault update, the flat
    arrays of every region the update left as it was are kept and
    re-keyed to its new region index (no ring walk, no re-packing), and
    only the validity gather is recomputed.
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
        "_order",
        "_total",
    )

    def __init__(self, router: Any) -> None:
        width, height = router.enabled_mask.shape
        self.shape = (width, height)
        num_regions = len(router._regions)
        self.start = np.zeros(num_regions, dtype=np.int64)
        self.length = np.zeros(num_regions, dtype=np.int64)
        self.packed = np.zeros(num_regions, dtype=bool)
        #: ``(region index, ring arrays)`` pairs in packing order; the index
        #: half is only valid for this instance's router.
        self._order: List[Tuple[int, RingArrays]] = []
        self._total = 0
        self._clear()

    def _clear(self) -> None:
        """Empty the flat arrays (the per-region slots stay)."""
        empty = np.empty(0, dtype=np.int64)
        self.ring_x = self.ring_y = self.entry_keys = self.entry_positions = empty
        self.valid = self.off_mesh = empty.astype(bool)
        self.geo_bits = empty.astype(np.uint8)

    def _pack(self, region: int, arrays: RingArrays) -> None:
        """Give *region* the next slot of the flat arrays."""
        self.start[region] = self._total
        self.length[region] = len(arrays)
        self.packed[region] = True
        self._order.append((region, arrays))
        self._total += len(arrays)

    def ensure(self, router: Any, regions: np.ndarray) -> None:
        """Append any of *regions* not packed yet and extend the arrays.

        At most one array update per kernel round (all of the round's
        new regions are appended together); rounds whose regions are all
        known cost one boolean gather.  New regions *extend* the
        existing flat arrays in place -- the sorted entry table absorbs
        them with a binary-search merge -- so a round that encounters
        one new region never re-concatenates, re-sorts or re-validates
        the regions already packed.
        """
        missing = regions[~self.packed[regions]]
        if missing.size == 0:
            return
        append_from = len(self._order)
        for region in np.unique(missing).tolist():
            self._pack(region, router.region_geometry(region).arrays(*self.shape))
        self._append(router, append_from)

    def _append(self, router: Any, append_from: int) -> None:
        """Extend the flat arrays with the records packed at
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
        new_x = np.concatenate([arrays.ring_x for _, arrays in fresh])
        new_y = np.concatenate([arrays.ring_y for _, arrays in fresh])
        new_off = np.concatenate([arrays.off_mesh for _, arrays in fresh])
        self.ring_x = np.concatenate([self.ring_x, new_x])
        self.ring_y = np.concatenate([self.ring_y, new_y])
        self.off_mesh = np.concatenate([self.off_mesh, new_off])
        self.geo_bits = np.concatenate(
            [self.geo_bits] + [arrays.geo_bits for _, arrays in fresh]
        )
        keys = np.concatenate(
            [region * cells + arrays.entry_keys for region, arrays in fresh]
        )
        positions = np.concatenate([arrays.entry_positions for _, arrays in fresh])
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
        """Re-pack every record from empty against the router's *current*
        disabled mask -- the one per-node property that depends on the
        other regions.  The re-pack oracle of the tests and
        ``benchmarks/bench_serve.py``."""
        self._clear()
        self._append(router, 0)

    def apply_fault_delta(self, router: Any, survivors: np.ndarray) -> "PackedRings":
        """Packed rings for *router*, patched from these by a survivor map.

        *survivors* maps each region index of this instance's router to
        the region's index in *router*, ``-1`` for a region the fault
        update changed (see :func:`survivor_map`).  The flat arrays are
        patched, not re-packed: the positions of changed regions are
        dropped, the entry keys are re-keyed to the new indices (they stay
        sorted when the map increases, as it does for construction
        routers; otherwise they are re-sorted), ``start`` is the
        cumulative sum of the kept lengths, and ``valid`` is one gather
        against the new disabled mask.  Changed and new regions pack on
        first encounter, as always.  The result equals a fresh
        :class:`PackedRings` packed over the same encounter sequence
        (asserted by ``tests/test_engine_deltas.py``).
        """
        fresh = PackedRings(router)
        if not self._order:
            return fresh
        old_regions = np.fromiter(
            (region for region, _ in self._order), np.int64, len(self._order)
        )
        new_regions = survivors[old_regions]
        alive = new_regions >= 0
        fresh._order = [
            (region, arrays)
            for region, (_, arrays) in zip(new_regions.tolist(), self._order)
            if region >= 0
        ]
        lengths = self.length[old_regions]
        kept = np.repeat(alive, lengths)
        fresh.ring_x = self.ring_x[kept]
        fresh.ring_y = self.ring_y[kept]
        fresh.off_mesh = self.off_mesh[kept]
        fresh.geo_bits = self.geo_bits[kept]
        new_regions, lengths = new_regions[alive], lengths[alive]
        ends = np.cumsum(lengths)
        fresh.start[new_regions] = ends - lengths
        fresh.length[new_regions] = lengths
        fresh.packed[new_regions] = True
        fresh._total = int(ends[-1]) if ends.size else 0
        cells = self.shape[0] * self.shape[1]
        rekeyed = survivors[self.entry_keys // cells]
        keep = rekeyed >= 0
        keys = rekeyed[keep] * cells + self.entry_keys[keep] % cells
        positions = self.entry_positions[keep]
        if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys)
            keys, positions = keys[order], positions[order]
        fresh.entry_keys, fresh.entry_positions = keys, positions
        width, height = self.shape
        disabled = router._disabled_mask
        fresh.valid = ~fresh.off_mesh & ~disabled[
            np.clip(fresh.ring_x, 0, width - 1), np.clip(fresh.ring_y, 0, height - 1)
        ]
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


#: The last lane of each traversal stage but the final one.  Most detours
#: exit (or fail) within a handful of ring hops -- on the serve-churn
#: scenario 93% of traversals resolve within 4 lanes and 99.5% within 8 --
#: so the first stage scans 4 lanes of every row, the second lanes 5..16
#: of the rows still unresolved, and only the rows unresolved after that
#: scan the rest of their ring.  Without the middle stage, the few rows a
#: short window misses would pay for a scan of the longest ring.
_TRAVERSAL_WINDOWS = (4, 16)


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
    Staged :func:`_scan_lanes` passes (:data:`_TRAVERSAL_WINDOWS`) resolve
    the typical rows on a few lanes; only rows with neither an exit nor a
    failure inside a stage scan on into the next, the last stage to the
    end of their ring.  Everything is chunked so peak memory stays
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
    pending = np.arange(count)
    lane_lo = 0
    for window in _TRAVERSAL_WINDOWS + (None,):
        if not pending.size:
            break
        longest = int(lengths[pending].max())
        lane_hi = longest if window is None else min(window, longest)
        chunk = max(1, _TRAVERSAL_CHUNK_CELLS // max(1, lane_hi - lane_lo))
        for chunk_start in range(0, pending.size, chunk):
            rows = pending[chunk_start : chunk_start + chunk]
            (
                has_exit[rows],
                first_exit[rows],
                has_fail[rows],
                first_fail[rows],
            ) = _scan_lanes(
                packed, disabled, message_type[rows], step[rows], entry[rows],
                dest_x[rows], dest_y[rows], lengths[rows], starts[rows],
                lane_lo, lane_hi,
            )
        pending = pending[
            ~has_exit[pending] & ~has_fail[pending] & (lengths[pending] > lane_hi)
        ]
        lane_lo = lane_hi
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
#: used when the scalar router finishes a batch's straggler tail, and by
#: the daemon to answer a scalar flush with outcome codes.
REASON_CODES = {reason: code for code, reason in REASONS.items() if code != DELIVERED}


def _finish_scalar(
    router: Any,
    live: np.ndarray,
    cur_x: np.ndarray,
    cur_y: np.ndarray,
    to_x: np.ndarray,
    to_y: np.ndarray,
    live_hops: np.ndarray,
    live_abnormal: np.ndarray,
    status: np.ndarray,
    hops: np.ndarray,
    abnormal: np.ndarray,
) -> None:
    """Finish the remaining frontier through the scalar router (the oracle).

    Continues each straggler from the lockstep frontier -- its position,
    hop count and abnormal-hop count at the head of a round -- and writes
    the per-message fields the kernel would have produced.  The scalar
    walk carries no other state from hop to hop, so the outcome equals
    routing the message from its source.  Uses the counters-only
    ``route_counts`` entry point: stragglers walk long budget-bounded
    paths whose hop-by-hop materialisation nobody reads.
    """
    for message, x, y, dx, dy, so_far, abnormal_so_far in zip(
        live.tolist(), cur_x.tolist(), cur_y.tolist(), to_x.tolist(),
        to_y.tolist(), live_hops.tolist(), live_abnormal.tolist(),
    ):
        delivered, taken, abnormal_taken, reason = router.route_counts(
            (x, y), (dx, dy), hops=so_far, abnormal_hops=abnormal_so_far
        )
        status[message] = DELIVERED if delivered else REASON_CODES[reason]
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
    ``as_arrays()``).  The hop budget of both routers is the router's own
    ``max_hops`` (set at router construction), so the lockstep rounds and
    the scalar tail always agree on it; the default of
    ``8 * (width + height)`` never binds a base e-cube path.  A router
    without ``detours`` fails a blocked message where the extended router
    would traverse the blocking region's ring.  Per-message outcomes --
    including hop counts, abnormal-hop counts and the scalar router's
    failure reasons -- are bit-identical to routing each pair through
    ``router.route``.

    *scalar_finish* overrides the frontier size at which the kernel hands
    the straggler tail to the scalar router, which continues each
    straggler from the lockstep's frontier (default
    ``_SCALAR_FINISH_THRESHOLD``; ``0`` forces a pure lockstep run, which
    the differential tests use to exercise the kernel on small batches).
    """
    if not supports_router(router):
        raise ValueError(
            "the batch engine only understands the built-in routers "
            "(ECubeRouter / ExtendedECubeRouter); route this batch with "
            "the scalar engine instead"
        )
    detours = router.detours
    disabled = ~router.enabled_mask
    budget_cap = router.max_hops
    stacked_tables = router.jump_tables().stack
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

    # Frontier state, compacted to the still-active messages every round:
    # one row per field, so a compaction is a single gather.  The names
    # below are views of its rows, updated in place.
    live = np.nonzero(status == ACTIVE)[0]
    frontier = np.zeros((7, live.size), dtype=np.int64)
    frontier[0] = live
    frontier[1:5] = src_x[live], src_y[live], dst_x[live], dst_y[live]
    live, cur_x, cur_y, to_x, to_y, live_hops, live_abnormal = frontier
    packed: Optional[PackedRings] = None
    finish_threshold = (
        _SCALAR_FINISH_THRESHOLD if scalar_finish is None else scalar_finish
    )

    def settle(done: np.ndarray, codes: Any) -> None:
        """Write the outcome of the *done* rows and drop them."""
        nonlocal frontier, live, cur_x, cur_y, to_x, to_y, live_hops, live_abnormal
        indices = live[done]
        status[indices] = codes
        hops[indices] = live_hops[done]
        abnormal[indices] = live_abnormal[done]
        keep = np.ones(live.size, dtype=bool)
        keep[done] = False
        frontier = frontier[:, keep]
        live, cur_x, cur_y, to_x, to_y, live_hops, live_abnormal = frontier

    while live.size > finish_threshold:
        # -- normal mode: both e-cube legs, each a terminal check (same
        # order as the scalar loop head) and one whole straight run.  After
        # the second, every message is delivered, blocked or out of budget.
        for _leg in range(2):
            arrived = (cur_x == to_x) & (cur_y == to_y)
            done = np.nonzero(arrived | (live_hops >= budget_cap))[0]
            if done.size:
                settle(done, np.where(arrived[done], DELIVERED, FAIL_BUDGET))
            x_phase = cur_x != to_x
            along = np.where(x_phase, to_x - cur_x, to_y - cur_y)
            sign = np.sign(along)
            dist = np.abs(along)
            # Direction index into the stacked jump tables -- 0 east, 1 west,
            # 2 north, 3 south -- which is also the message type ``MT_*``.
            direction = np.where(x_phase, 0, 2) + (sign < 0)
            coordinate = np.where(x_phase, cur_x, cur_y)
            next_block = stacked_tables[direction, cur_x, cur_y]
            # Every live message has a free run of at least 0 and hops to
            # spare, so a message next to its block runs 0 hops.
            free = np.abs(next_block - coordinate) - 1
            run = np.minimum(dist, np.minimum(free, budget_cap - live_hops))
            step = sign * run
            cur_x += np.where(x_phase, step, 0)
            cur_y += np.where(x_phase, 0, step)
            live_hops += run
        # A message whose run was truncated by a blocked cell (not by the
        # turn point or the hop budget) sits adjacent to the block now --
        # its next scalar iteration would enter abnormal mode, so handle
        # it this round instead of paying another round to rediscover it.
        # A message blocked after the first leg runs 0 hops in the second
        # and is still blocked here.
        rows = np.nonzero((run == free) & (run < dist) & (live_hops < budget_cap))[0]
        if not rows.size:
            continue
        if not detours:
            settle(rows, FAIL_BLOCKED)
            continue

        # -- abnormal mode: one packed traversal for the whole round ---------
        if packed is None:
            packed = router.packed_rings()
        at_x, at_y = cur_x[rows], cur_y[rows]
        go_x, go_y = to_x[rows], to_y[rows]
        message_type = direction[rows]
        row_phase = x_phase[rows]
        # The blocking cell is the jump-table hit right ahead.
        blocker = next_block[rows]
        regions = region_index[
            np.where(row_phase, blocker, at_x), np.where(row_phase, at_y, blocker)
        ].astype(np.int64)
        # Orientation rules of Section 2.2 (+1 clockwise, -1 counter-): a
        # WE message below its destination row and an EW message not
        # below it circle counter-clockwise, every other one clockwise.
        preferred = 1 - 2 * (row_phase & ((at_y < go_y) != (message_type == MT_EW)))

        packed.ensure(router, regions)
        entry = packed.entries_of(regions, at_x, at_y)
        fail_code = np.where(entry < 0, FAIL_ENTRY, 0).astype(np.int8)
        walkers = np.nonzero(entry >= 0)[0]
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
            moved = rows[walkers[ok]]
            cur_x[moved] = land_x[ok]
            cur_y[moved] = land_y[ok]
            live_hops[moved] += taken[ok]
            live_abnormal[moved] += taken[ok]
            fail_code[walkers[~ok]] = code[~ok]
        failed = np.nonzero(fail_code)[0]
        if failed.size:
            settle(rows[failed], fail_code[failed])
    if live.size:
        _finish_scalar(
            router, live, cur_x, cur_y, to_x, to_y, live_hops, live_abnormal,
            status, hops, abnormal,
        )
    return outcome


# -- incremental engine deltas ------------------------------------------------------


def survivor_map(old_router: Any, new_router: Any) -> np.ndarray:
    """Old region index -> new region index of every region that survived.

    Read from the two routers' index grids: a region survives when the
    new grid holds a region with exactly its cells, which for a
    construction's regions means that none of its cells changed state
    and no changed cell joined it.  Its cells then carry one old and one
    new index.  Every other entry is ``-1``, as is every region with a
    node outside the grid (explicit region lists only).  Construction
    regions are numbered in C-order of their first cell, so the map
    increases over the survivors.
    """
    old_index = old_router.region_index.ravel()
    new_index = new_router.region_index.ravel()
    cells = np.flatnonzero((old_index >= 0) | (new_index >= 0))
    old_of = old_index[cells].astype(np.int64)
    new_of = new_index[cells].astype(np.int64)
    # One slot past the regions absorbs index -1 (an enabled cell).
    image = np.full(len(old_router._regions) + 1, -1, dtype=np.int64)
    preimage = np.full(len(new_router._regions) + 1, -1, dtype=np.int64)
    image[old_of] = new_of
    preimage[new_of] = old_of
    # A region whose cells disagree on their other index split or merged.
    image[old_of[image[old_of] != new_of]] = -1
    preimage[new_of[preimage[new_of] != old_of]] = -1
    image[list(set(old_router._extra_disabled.values()))] = -1
    preimage[list(set(new_router._extra_disabled.values()))] = -1
    image = image[:-1]
    kept = np.flatnonzero(image >= 0)
    image[kept[preimage[image[kept]] != kept]] = -1
    return image


def transplant_engine_state(old_router: Any, new_router: Any) -> bool:
    """Delta-patch *new_router*'s engine state from *old_router*'s.

    Called by :class:`repro.api.RoutingSession` when a fault update
    forces a router rebuild.  The :func:`survivor_map` of the two index
    grids names the regions the update left as they were: the new router
    takes over the old router's :class:`RegionGeometry` of each of them,
    under its new index, and the old router's packed rings are patched
    with :meth:`PackedRings.apply_fault_delta` (changed regions dropped,
    survivors re-keyed).  The jump tables are carried over with
    :meth:`JumpTables.apply_fault_delta` (only the rows/columns
    containing changed cells re-scanned).  Changed regions resolve their
    geometry through the session's :class:`RegionRingCache` on first
    need.  Lazily-unbuilt state on the old router stays unbuilt on the
    new one.  Returns whether anything was transplanted.  The patched
    state is bit-identical to a full rebuild -- that is the whole
    contract, enforced by ``tests/test_engine_deltas.py`` and
    ``benchmarks/bench_serve.py``.
    """
    if type(old_router) is not type(new_router):
        return False
    if old_router._disabled_mask.shape != new_router._disabled_mask.shape:
        return False
    transplanted = False
    old_packed = old_router._packed_rings
    if old_router._geometry or old_packed is not None:
        survivors = survivor_map(old_router, new_router)
        moved = survivors.tolist()
        for region, geometry in old_router._geometry.items():
            if moved[region] >= 0:
                new_router._geometry[moved[region]] = geometry
                transplanted = True
        if old_packed is not None:
            new_router._packed_rings = old_packed.apply_fault_delta(new_router, survivors)
            transplanted = True
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
