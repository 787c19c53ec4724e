"""The hot array primitives, implemented once in NumPy.

Every hot path of the reproduction bottoms out in a handful of array
primitives: the mask kernel's component labelling, span-fill fixpoints
and Definition-1 check (:mod:`repro.geometry.masks`), the batch engine's
jump-table accumulate scans and windowed ring-lane traversals
(:mod:`repro.routing.engine`), and the netsim grant/arbitration kernel
(:mod:`repro.netsim.simulators`).  This module holds their vectorized
implementations and bundles them into one frozen :class:`ArrayOps`,
:data:`NUMPY_OPS`.

**The seam.**  Consumers never import a primitive directly: they call
``_array_ops.active_ops()`` through the module attribute at call time,
e.g. ``_array_ops.active_ops().span_fill(mask)``.  Replacing that
attribute swaps every primitive at once, which is how two clients see
inside the hot paths:

* the differential tests swap in the loop-nest reference of
  :mod:`repro._array_loops` (``_array_loops.OPS``) and assert labels,
  hulls, routes and delivery fingerprints are unchanged;
* the pipeline benchmark's tracer wraps the returned ops'
  fields in timing spans.

``ArrayOps.key`` names the primitive set that ran; it lands in
``RoutingStats.backend`` / ``NetSimStats.backend`` and the daemon's
``status["backend"]``, so stats say ``"loops"`` under the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly depending on the environment
    from scipy import ndimage as _ndimage
except ImportError:  # pragma: no cover
    _ndimage = None

_shift_impl = None


def _shift(mask: np.ndarray, dx: int, dy: int, wrap: bool, fill=None) -> np.ndarray:
    """The shared shifted-view primitive of :mod:`repro.core.labelling`.

    Imported lazily: ``repro.core`` transitively imports this module (via
    the mask kernel), so a top-level import would be circular.
    """
    global _shift_impl
    if _shift_impl is None:
        from repro.core.labelling import _shift as shift

        _shift_impl = shift
    return _shift_impl(mask, dx, dy, wrap, fill)


#: Neighbour offsets of the two adjacency notions used by the paper.
_OFFSETS_4: Tuple[Tuple[int, int], ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))
_OFFSETS_8: Tuple[Tuple[int, int], ...] = _OFFSETS_4 + (
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
)


# -- labelling -------------------------------------------------------------------------


def propagate_labels(mask: np.ndarray, offsets) -> np.ndarray:
    """Minimum-label propagation over *mask* using shifted-array minima."""
    width, height = mask.shape
    sentinel = width * height
    labels = np.where(
        mask, np.arange(sentinel, dtype=np.int64).reshape(width, height), sentinel
    )
    while True:
        best = labels
        for dx, dy in offsets:
            best = np.minimum(best, _shift(labels, dx, dy, wrap=False, fill=sentinel))
        best = np.where(mask, best, sentinel)
        if np.array_equal(best, labels):
            break
        labels = best
    return labels


def canonicalise_labels(labels: np.ndarray, count: int) -> np.ndarray:
    """Relabel 1..count in ascending order of each component's first cell.

    The first cell of a component in a C-order scan of the ``[x, y]`` array
    is its lexicographically smallest node, so the canonical order matches
    the discovery order of the BFS oracles (sorted seed nodes).
    """
    if count == 0:
        return labels
    flat = labels.ravel()
    occupied = np.flatnonzero(flat)
    first = np.full(count + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat[occupied], occupied)
    order = np.argsort(first[1:], kind="stable")
    remap = np.zeros(count + 1, dtype=np.int32)
    remap[order + 1] = np.arange(1, count + 1, dtype=np.int32)
    return remap[labels]


def _label_components_numpy(mask: np.ndarray, connectivity: int):
    """Canonically labelled components of a (tight) boolean mask.

    Uses :mod:`scipy.ndimage`'s C labelling when importable, the
    shifted-array minimum propagation otherwise; both are canonicalised to
    ascending lexicographic order of each component's minimum node.
    """
    if _ndimage is not None:
        structure = np.ones((3, 3), dtype=bool) if connectivity == 8 else None
        raw, count = _ndimage.label(mask, structure=structure)
        raw = raw.astype(np.int32, copy=False)
    else:
        offsets = _OFFSETS_8 if connectivity == 8 else _OFFSETS_4
        propagated = propagate_labels(mask, offsets)
        roots = np.unique(propagated[mask])
        count = int(roots.size)
        raw = np.zeros(mask.shape, dtype=np.int32)
        raw[mask] = np.searchsorted(roots, propagated[mask]) + 1
    return canonicalise_labels(raw, int(count)), int(count)


# -- span fills and hulls --------------------------------------------------------------


def _span_fill_axis(mask: np.ndarray, axis: int) -> np.ndarray:
    """Fill, along *axis*, every cell between the first and last occupied."""
    n = mask.shape[axis]
    occupied = mask.any(axis=axis)
    first = mask.argmax(axis=axis)
    if axis == 1:
        last = n - 1 - mask[:, ::-1].argmax(axis=1)
        index = np.arange(n)
        span = (index[None, :] >= first[:, None]) & (index[None, :] <= last[:, None])
        return span & occupied[:, None]
    last = n - 1 - mask[::-1, :].argmax(axis=0)
    index = np.arange(n)
    span = (index[:, None] >= first[None, :]) & (index[:, None] <= last[None, :])
    return span & occupied[None, :]


def _span_fill_numpy(mask: np.ndarray) -> np.ndarray:
    """One concave-section fill pass: row spans union column spans."""
    return _span_fill_axis(mask, 0) | _span_fill_axis(mask, 1)


def _hull_fixpoint_numpy(mask: np.ndarray) -> np.ndarray:
    """The minimum orthogonal convex hull of *mask* (span-fill fixed point)."""
    current = mask
    while True:
        filled = _span_fill_numpy(current)
        if np.array_equal(filled, current):
            return filled
        current = filled


def _nonconvex_labels_numpy(labels: np.ndarray, count: int) -> np.ndarray:
    """Labels (``1..count``) whose cell sets violate Definition 1.

    Both line checks run over *all* regions at once: the occupied cells are
    sorted by ``(label, x, y)`` (free: ``np.nonzero`` scan order) and by
    ``(label, y, x)`` (one lexsort), and a region is flagged when two
    consecutive cells of the same label and line differ by more than one.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    xs, ys = np.nonzero(labels)
    lab = labels[xs, ys]
    order = np.argsort(lab, kind="stable")  # -> sorted by (label, x, y)
    lab_c, xs_c, ys_c = lab[order], xs[order], ys[order]
    same_col = (lab_c[1:] == lab_c[:-1]) & (xs_c[1:] == xs_c[:-1])
    col_gaps = same_col & (ys_c[1:] - ys_c[:-1] != 1)
    order = np.lexsort((xs, ys, lab))  # -> sorted by (label, y, x)
    lab_r, xs_r, ys_r = lab[order], xs[order], ys[order]
    same_row = (lab_r[1:] == lab_r[:-1]) & (ys_r[1:] == ys_r[:-1])
    row_gaps = same_row & (xs_r[1:] - xs_r[:-1] != 1)
    return np.unique(np.concatenate((lab_c[1:][col_gaps], lab_r[1:][row_gaps])))


# -- routing-engine scans --------------------------------------------------------------


def _jump_tables_numpy(disabled: np.ndarray):
    """The four next-blocked-cell tables, one accumulate scan each."""
    width, height = disabled.shape
    xs = np.arange(width, dtype=np.int64)[:, None]
    ys = np.arange(height, dtype=np.int64)[None, :]
    blocked_x = np.where(disabled, xs, width)
    at_or_east = np.minimum.accumulate(blocked_x[::-1], axis=0)[::-1]
    east = np.vstack([at_or_east[1:], np.full((1, height), width, dtype=np.int64)])
    blocked_x = np.where(disabled, xs, -1)
    at_or_west = np.maximum.accumulate(blocked_x, axis=0)
    west = np.vstack([np.full((1, height), -1, dtype=np.int64), at_or_west[:-1]])
    blocked_y = np.where(disabled, ys, height)
    at_or_north = np.minimum.accumulate(blocked_y[:, ::-1], axis=1)[:, ::-1]
    north = np.hstack(
        [at_or_north[:, 1:], np.full((width, 1), height, dtype=np.int64)]
    )
    blocked_y = np.where(disabled, ys, -1)
    at_or_south = np.maximum.accumulate(blocked_y, axis=1)
    south = np.hstack([np.full((width, 1), -1, dtype=np.int64), at_or_south[:, :-1]])
    return east, west, north, south


def _scan_lanes_numpy(
    ring_x: np.ndarray,
    ring_y: np.ndarray,
    valid: np.ndarray,
    geo_bits: np.ndarray,
    width: int,
    height: int,
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
):
    """Scan ring lanes ``lane_lo+1 .. lane_hi`` of every row at once.

    The padded ``(rows x lanes)`` matrix form: every candidate lane of
    every row is materialised and the first exit / first failure fall out
    of two ``argmax`` reductions (default ``lane_lo + 1`` when a row has
    neither -- the ``argmax`` of all-``False``).
    """
    lanes = np.arange(lane_lo + 1, lane_hi + 1, dtype=np.int64)
    row_length = lengths[:, None]
    relative = (entry[:, None] + step[:, None] * lanes[None, :]) % row_length
    index = starts[:, None] + relative
    in_ring = lanes[None, :] <= row_length
    node_x = ring_x[index]
    node_y = ring_y[index]
    live = valid[index]
    dxc = dest_x[:, None]
    dyc = dest_y[:, None]
    # ``_passed_region``: the geometric half is precomputed per ring node
    # as one bit per message type; the destination half compares the x
    # coordinate for WE/EW rows (types 0 and 1) and the y coordinate for
    # SN/NS rows.
    geo = (geo_bits[index] >> message_type[:, None]) & 1 != 0
    passed = geo | np.where(message_type[:, None] <= 1, node_x == dxc, node_y == dyc)
    # Vectorized ``ecube_next_hop(node, destination)``: the follow-up hop
    # is clear when the node *is* the destination or its next e-cube cell
    # is enabled.  Off-mesh lanes are masked by ``live``; the min/max
    # only keeps their gather in bounds.
    step_x = np.sign(dxc - node_x)
    step_y = np.where(step_x == 0, np.sign(dyc - node_y), 0)
    follow_x = np.minimum(np.maximum(node_x + step_x, 0), width - 1)
    follow_y = np.minimum(np.maximum(node_y + step_y, 0), height - 1)
    at_destination = (step_x == 0) & (step_y == 0)
    clear = at_destination | ~disabled[follow_x, follow_y]
    exit_ok = live & passed & clear & in_ring
    failed = ~live & in_ring
    return (
        exit_ok.any(axis=1),
        lane_lo + 1 + exit_ok.argmax(axis=1),
        failed.any(axis=1),
        lane_lo + 1 + failed.argmax(axis=1),
    )


# -- netsim arbitration ----------------------------------------------------------------


def _grant_messages_numpy(
    requested: np.ndarray, active: np.ndarray, occupied: np.ndarray
) -> np.ndarray:
    """One netsim arbitration cycle: grant each free channel's lowest bidder.

    Sorts by ``(channel, message index)`` -- the first row of each channel
    group is that channel's lowest-index requester -- and keeps the leaders
    whose channel buffer is free.  Returns the granted message indices
    ordered by requested channel ascending.
    """
    perm = np.lexsort((active, requested))
    sorted_requests = requested[perm]
    leader = np.ones(sorted_requests.size, dtype=bool)
    leader[1:] = sorted_requests[1:] != sorted_requests[:-1]
    grantable = leader & ~occupied[sorted_requests]
    return active[perm[grantable]]


# -- the primitive set -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ArrayOps:
    """One implementation of every hot primitive.

    ``key`` names the implementation (``"numpy"`` or ``"loops"``) for the
    stats labels.  Both implementations are bit-identical; the
    differential suite in ``tests/test_array_ops.py`` is the witness.
    """

    key: str
    #: ``(tight bool mask, connectivity) -> (int32 labels 1..count, count)``
    #: in canonical order (ascending lexicographic minimum node).
    label_components: Callable
    #: ``bool mask -> bool mask``: row spans union column spans.
    span_fill: Callable
    #: ``bool mask -> bool mask``: span fill iterated to its fixed point.
    hull_fixpoint: Callable
    #: ``(labels, count) -> ascending label array`` of Definition-1 violators.
    nonconvex_labels: Callable
    #: ``disabled mask -> (east, west, north, south)`` int64 tables.
    jump_tables: Callable
    #: The windowed ring-lane traversal scan of the batch routing engine.
    scan_lanes: Callable
    #: ``(requested, active, occupied) -> granted`` netsim arbitration.
    grant_messages: Callable


NUMPY_OPS = ArrayOps(
    key="numpy",
    label_components=_label_components_numpy,
    span_fill=_span_fill_numpy,
    hull_fixpoint=_hull_fixpoint_numpy,
    nonconvex_labels=_nonconvex_labels_numpy,
    jump_tables=_jump_tables_numpy,
    scan_lanes=_scan_lanes_numpy,
    grant_messages=_grant_messages_numpy,
)


def active_ops() -> ArrayOps:
    """The primitives the hot paths run (:data:`NUMPY_OPS`; see the seam
    in the module docstring)."""
    return NUMPY_OPS


def active_backend_key() -> str:
    """The ``key`` of the primitives the hot paths run."""
    return active_ops().key
