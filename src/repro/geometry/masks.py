"""NumPy bitmask kernel for the hot geometric primitives.

Every region-level primitive of the construction pipeline -- grouping
faults into 8-connected components, testing a region for orthogonal
convexity (Definition 1), filling a region to its minimum orthogonal convex
hull, and extracting boundary rings and perimeters -- was originally
implemented over Python sets of coordinate tuples.  Those implementations
are clear and remain the differential-test oracle, but they cost an
interpreted loop iteration per node, which dominates the runtime of
large-mesh sweeps.

This module reimplements the primitives as whole-grid boolean-array
operations built on the shifted-array primitive ``_shift`` of
:mod:`repro._array_ops`:

* **Connected-component labelling** (:func:`label_mask`): iterative
  minimum-label propagation -- every occupied cell starts with its linear
  index and repeatedly adopts the smallest label visible among its 4 or 8
  neighbours, exactly one shifted-array minimum per direction per round.
  When :mod:`scipy.ndimage` is importable its C implementation is used
  instead; both paths are canonicalised to the same deterministic label
  order (ascending lexicographic minimum node), so results are
  bit-identical to the BFS oracle in :mod:`repro.core.components`.
  The labelling, span-fill, hull and Definition-1 primitives themselves
  live in :mod:`repro._array_ops` and are reached through its
  ``active_ops()`` seam, where the tests swap in the loop-nest reference.
* **Orthogonal convexity / hull** (:func:`is_convex_mask`,
  :func:`span_violations`, :func:`hull_mask`): per-row and per-column
  occupied spans are computed with two ``argmax`` sweeps; a region is
  convex iff the span fill adds nothing, and the minimum hull is the span
  fill iterated to its fixed point (the same fixed point as the set-based
  :func:`repro.geometry.orthogonal.orthogonal_convex_hull`).
* **Rings and perimeters** (:func:`ring_mask`, :func:`perimeter_mask`):
  binary morphology -- the boundary ring is the 8-dilation minus the
  region, the perimeter counts the exposed cell sides via four shifts.

The kernel is the only production path, except for inputs whose bounding
box exceeds :data:`MAX_LOCAL_AREA`: those go to the set-based primitives
(the ``*_sets`` functions of :mod:`repro.geometry.orthogonal`,
:func:`repro.core.components.find_components_bfs`).  The set-based
primitives and the set-based constructions of :mod:`repro.core.reference`
are the references the differential tests and
``benchmarks/bench_kernel.py`` call by name.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro import _array_ops
from repro._array_ops import _OFFSETS_4, _OFFSETS_8, _shift
from repro.types import Coord

#: Largest local bounding-box area (cells) the kernel will materialise as a
#: dense mask; a sparser region falls back to the set-based oracle.  16M
#: boolean cells is ~16 MB -- far beyond any mesh the benchmarks sweep.
MAX_LOCAL_AREA = 16_000_000

# -- mask <-> coordinate conversions -------------------------------------------------


def integer_rows(rows: Any, columns: int) -> Optional[np.ndarray]:
    """*rows* as an ``(n, columns)`` int64 array, or ``None`` unless it is
    *n* rows of *columns* integers each.

    A Python or numpy integer counts; ``bool``, ``float`` and ``str`` do
    not.  NumPy folds a ``bool`` among integers into an integer array, so
    the element types are checked in one C-level pass before converting.
    The element rule of :func:`validated_coords` and of the daemon's
    request parsing.
    """
    try:
        types = set(map(type, chain.from_iterable(rows)))
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
            return None
        array = np.array(rows, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if array.size == 0:  # no rows: no columns to read the width from
        array = array.reshape(0, columns)
    return array if array.shape == (len(rows), columns) else None


def validated_coords(
    coords: Iterable[Coord],
    width: int,
    height: int,
    kind: str = "node",
    where: str = "grid",
) -> np.ndarray:
    """Return *coords* as a validated ``(n, 2)`` int64 array.

    Raises ``ValueError`` naming the first coordinate (in iteration order)
    that is not an ``(x, y)`` pair of integers by :func:`integer_rows`'s
    rule, else the first one outside the ``width x height`` bounds;
    *kind*/*where* parametrise the message so callers keep their
    historical wording.  Shared by
    :func:`repro.core.labelling.faults_to_mask`,
    :class:`repro.mesh.status.StatusGrid`,
    :class:`repro.core.raster.FaultRaster` and the
    :class:`repro.api.MeshSession` mutators.
    """
    rows = list(coords)
    pts = integer_rows(rows, 2)
    if pts is None:
        item = next((row for row in rows if integer_rows([row], 2) is None), rows)
        raise ValueError(f"{kind} coordinates must be (x, y) pairs of integers, not {item!r}")
    xs, ys = pts[:, 0], pts[:, 1]
    bad = (xs < 0) | (xs >= width) | (ys < 0) | (ys >= height)
    if bad.any():
        x, y = pts[int(np.argmax(bad))]
        raise ValueError(
            f"{kind} {(int(x), int(y))} outside {width}x{height} {where}"
        )
    return pts


def coords_to_local_mask(
    coords: Iterable[Coord], pad: int = 0
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rasterise *coords* into a tight local mask.

    Returns ``(mask, (min_x, min_y))`` where ``mask[x - min_x, y - min_y]``
    is ``True`` for every coordinate; *pad* adds a margin of empty cells on
    every side (needed when a dilation must not fall off the array).  The
    empty collection yields a ``(0, 0)`` mask.
    """
    pts = np.asarray(coords if isinstance(coords, np.ndarray) else list(coords))
    if pts.size == 0:
        return np.zeros((0, 0), dtype=bool), (0, 0)
    pts = pts.reshape(-1, 2)
    min_x = int(pts[:, 0].min()) - pad
    min_y = int(pts[:, 1].min()) - pad
    width = int(pts[:, 0].max()) + pad - min_x + 1
    height = int(pts[:, 1].max()) + pad - min_y + 1
    mask = np.zeros((width, height), dtype=bool)
    mask[pts[:, 0] - min_x, pts[:, 1] - min_y] = True
    return mask, (min_x, min_y)


def try_local_mask(
    coords: Iterable[Coord], pad: int = 0, max_area: int = MAX_LOCAL_AREA
) -> Optional[Tuple[np.ndarray, Tuple[int, int]]]:
    """Like :func:`coords_to_local_mask`, but ``None`` when the bounding box
    is too sparse to rasterise (the caller then uses its set-based path)."""
    pts = np.asarray(coords if isinstance(coords, np.ndarray) else list(coords))
    if pts.size == 0:
        return np.zeros((0, 0), dtype=bool), (0, 0)
    pts = pts.reshape(-1, 2)
    spread_x = int(pts[:, 0].max()) - int(pts[:, 0].min()) + 1 + 2 * pad
    spread_y = int(pts[:, 1].max()) - int(pts[:, 1].min()) + 1 + 2 * pad
    if spread_x * spread_y > max_area:
        return None
    return coords_to_local_mask(pts, pad=pad)


def mask_to_coords(mask: np.ndarray, offset: Tuple[int, int] = (0, 0)) -> List[Coord]:
    """Return the ``True`` cells of *mask* as plain-int coordinate tuples.

    ``np.nonzero`` scans in C order, so the list is sorted lexicographically
    by ``(x, y)`` -- the same order the set-based code obtains from
    ``sorted()``.
    """
    xs, ys = np.nonzero(mask)
    return list(zip((xs + offset[0]).tolist(), (ys + offset[1]).tolist()))


def mask_to_frozenset(
    mask: np.ndarray, offset: Tuple[int, int] = (0, 0)
) -> FrozenSet[Coord]:
    """Return the ``True`` cells of *mask* as a frozenset of coordinates."""
    return frozenset(mask_to_coords(mask, offset))


# -- connected-component labelling ---------------------------------------------------


def label_mask(mask: np.ndarray, connectivity: int = 8) -> Tuple[np.ndarray, int]:
    """Label the connected components of a boolean ``[x, y]`` mask.

    Returns ``(labels, count)`` where ``labels`` holds ``0`` on empty cells
    and ``1..count`` on occupied cells; labels are assigned in ascending
    lexicographic order of each component's minimum node, matching the
    deterministic discovery order of the set-based BFS.  *connectivity* is
    ``8`` (the paper's Definition 2, diagonal contact merges) or ``4`` (the
    physical link adjacency used for fault regions).
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, not {connectivity}")
    width, height = mask.shape
    out = np.zeros((width, height), dtype=np.int32)
    occupied_x = mask.any(axis=1)
    if not occupied_x.any():
        return out, 0
    occupied_y = mask.any(axis=0)
    # Work on the tight bounding box of the occupied cells: the labelling
    # cost scales with the box area, not the full grid.
    x0, x1 = int(occupied_x.argmax()), width - int(occupied_x[::-1].argmax())
    y0, y1 = int(occupied_y.argmax()), height - int(occupied_y[::-1].argmax())
    sub = np.ascontiguousarray(mask[x0:x1, y0:y1])
    labels, count = _array_ops.active_ops().label_components(sub, connectivity)
    out[x0:x1, y0:y1] = labels
    return out, int(count)


def grouped_nonzero(
    labels: np.ndarray, count: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split the occupied cells of a label array by label.

    Returns, for each label ``1..count`` in order, the ``(xs, ys)`` index
    arrays of its cells sorted lexicographically by ``(x, y)``.
    """
    xs, ys = np.nonzero(labels)
    values = labels[xs, ys]
    order = np.argsort(values, kind="stable")  # keeps C-order within a label
    xs, ys, values = xs[order], ys[order], values[order]
    bounds = np.searchsorted(values, np.arange(1, count + 2))
    return [
        (xs[bounds[i] : bounds[i + 1]], ys[bounds[i] : bounds[i + 1]])
        for i in range(count)
    ]


def nonconvex_labels(labels: np.ndarray, count: int) -> np.ndarray:
    """Labels (``1..count``) whose cell sets violate Definition 1.

    A region is orthogonal convex iff in every row its occupied columns form
    a contiguous run, and in every column its occupied rows do.  Both checks
    run over *all* regions at once: a region is flagged when one of its
    columns or rows holds two runs of its cells.  This is what lets the
    convexity repair after piling touch no Python per-region loop in the
    (overwhelmingly common) all-convex case.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return _array_ops.active_ops().nonconvex_labels(labels, count)


# -- orthogonal convexity ------------------------------------------------------------


def span_fill(mask: np.ndarray) -> np.ndarray:
    """One concave-section fill pass: row spans union column spans.

    This is the mask form of
    :func:`repro.geometry.orthogonal.orthogonal_convexity_violations` plus
    the region itself.
    """
    if mask.size == 0:
        return mask.copy()
    return _array_ops.active_ops().span_fill(mask)


def span_violations(mask: np.ndarray) -> np.ndarray:
    """The first layer of orthogonal-convexity violations of *mask*."""
    return span_fill(mask) & ~mask


def is_convex_mask(mask: np.ndarray) -> bool:
    """Whether *mask* satisfies the paper's Definition 1."""
    if mask.size == 0:
        return True
    return not span_violations(mask).any()


def hull_mask(mask: np.ndarray) -> np.ndarray:
    """The minimum orthogonal convex hull of *mask* (span-fill fixed point)."""
    if mask.size == 0:
        return mask.copy()
    return _array_ops.active_ops().hull_fixpoint(mask)


# -- morphology: rings and perimeters ------------------------------------------------


def dilate_mask(mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Binary dilation of *mask* by one cell (zero fill beyond the array)."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, not {connectivity}")
    if mask.size == 0:
        return mask.copy()
    out = mask.copy()
    for dx, dy in _OFFSETS_8 if connectivity == 8 else _OFFSETS_4:
        out |= _shift(mask, dx, dy, wrap=False)
    return out


def ring_mask(mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """The boundary ring of *mask*: its dilation minus the region itself.

    With the default 8-connectivity this is exactly the member set of the
    clockwise boundary ring (side nodes plus outer corners, see
    :func:`repro.geometry.boundary.ring_members`).  The caller must provide
    one cell of padding (``coords_to_local_mask(..., pad=1)``) when ring
    cells outside the region's bounding box matter.
    """
    return dilate_mask(mask, connectivity) & ~mask


def perimeter_mask(mask: np.ndarray) -> int:
    """Number of exposed (cell, side) edges of *mask*.

    Matches :func:`repro.geometry.boundary.region_perimeter`: a side is
    exposed when the 4-neighbour across it is outside the region (cells
    beyond the array count as outside).
    """
    if mask.size == 0:
        return 0
    total = 0
    for dx, dy in _OFFSETS_4:
        total += int((mask & ~_shift(mask, dx, dy, wrap=False)).sum())
    return total
