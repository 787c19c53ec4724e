"""Labelling schemes 1 and 2 as synchronous fixed-point iterations.

The two labelling schemes of the paper (Section 2.3, originally from Wu's
IPDPS 2001 sub-minimum faulty polygon construction) drive both baseline
fault models and the centralized minimum-faulty-polygon emulation:

* **Labelling scheme 1** (growing phase): all faulty nodes are *unsafe* and
  all non-faulty nodes are *safe* initially.  A non-faulty node changes to
  unsafe if it has a faulty or unsafe neighbour in **both** dimensions;
  otherwise it remains safe.  At the fixed point the connected unsafe
  regions are rectangular faulty blocks.
* **Labelling scheme 2** (shrinking phase): faulty nodes are *disabled*,
  safe nodes are *enabled*; an unsafe non-faulty node starts disabled and
  becomes enabled once it has two or more enabled neighbours.  At the fixed
  point the disabled regions are orthogonal convex polygons.

Each node only ever inspects its neighbours, so a synchronous sweep of the
whole grid corresponds to one *round* of neighbour information exchange in
the distributed system -- this is exactly the quantity reported in the
paper's Figure 11.  The implementation below performs the sweeps as whole-
array numpy operations on one padded buffer updated in place: a node's four
neighbours are slices of the buffer, and on a torus a one-cell halo is
refreshed from the opposite edge before every sweep.  That makes the
100x100 evaluation sweeps fast while producing the same label trajectory as
the per-node message-passing protocol in
:mod:`repro.distributed.labelling_protocol` (the equivalence is a property
test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mesh.topology import Topology, Torus2D


@dataclass(frozen=True)
class LabellingResult:
    """Outcome of running one labelling scheme to its fixed point.

    ``labels`` is a boolean array indexed ``[x, y]``; its meaning depends on
    the scheme (``True`` = unsafe for scheme 1, ``True`` = disabled for
    scheme 2).  ``rounds`` is the number of synchronous update rounds in
    which at least one node changed its label; the fixed point is reached
    after exactly this many rounds of neighbour information exchange.
    """

    labels: np.ndarray
    rounds: int


def _wrap_halo(padded: np.ndarray) -> None:
    """Refresh the one-cell halo of a padded torus grid from the opposite edges.

    ``padded[1:-1, 1:-1]`` holds the grid; afterwards every halo cell
    holds the grid cell one wrap-around step away, so the four neighbour
    slices of the padded buffer see exactly what ``np.roll`` would.  The
    corners stay stale: no sweep reads a diagonal neighbour.
    """
    padded[0, 1:-1] = padded[-2, 1:-1]
    padded[-1, 1:-1] = padded[1, 1:-1]
    padded[1:-1, 0] = padded[1:-1, -2]
    padded[1:-1, -1] = padded[1:-1, 1]


def _neighbour_slices(padded: np.ndarray):
    """The W, E, S, N neighbour views of every grid cell of *padded*."""
    return padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]


def apply_labelling_scheme_1(
    faulty: np.ndarray,
    topology: Optional[Topology] = None,
    max_rounds: Optional[int] = None,
) -> LabellingResult:
    """Run labelling scheme 1 (growing) to its fixed point.

    Parameters
    ----------
    faulty:
        Boolean array ``[x, y]`` of injected faults.
    topology:
        Optional topology; only used to decide whether neighbourhoods wrap
        (torus) or not (mesh, the default).
    max_rounds:
        Optional cap on the sweeps; by default ``2 * (width + height)``.
        The fixed point must be confirmed by a sweep that changes nothing,
        so a pattern needing ``max_rounds`` or more rounds raises
        ``RuntimeError("labelling scheme 1 did not converge")``.  The
        default cap is not a bound: dense patterns whose blocks flood the
        mesh need several hundred rounds on a 100x100 mesh, and raise.

    Returns
    -------
    LabellingResult
        ``labels`` is the unsafe mask (faulty nodes included); ``rounds`` is
        the number of rounds in which some node newly became unsafe.
    """
    wrap = isinstance(topology, Torus2D)
    width, height = faulty.shape
    cap = max_rounds if max_rounds is not None else 2 * (width + height)
    # One padded buffer, updated in place: cell [x, y] lives at
    # [x + 1, y + 1], so its neighbours are slices of the buffer.  On a
    # mesh the halo stays False (a missing neighbour is never unsafe).
    padded = np.zeros((width + 2, height + 2), dtype=bool)
    unsafe = padded[1:-1, 1:-1]
    unsafe[...] = faulty
    west, east, south, north = _neighbour_slices(padded)
    x_threat = np.empty((width, height), dtype=bool)
    growth = np.empty((width, height), dtype=bool)
    rounds = 0
    for _ in range(cap):
        if wrap:
            _wrap_halo(padded)
        np.bitwise_or(west, east, out=x_threat)
        np.bitwise_or(south, north, out=growth)
        growth &= x_threat
        np.greater(growth, unsafe, out=growth)  # threatened in both, still safe
        if not growth.any():
            break
        unsafe |= growth
        rounds += 1
    else:
        raise RuntimeError("labelling scheme 1 did not converge")
    return LabellingResult(labels=unsafe.copy(), rounds=rounds)


def apply_labelling_scheme_2(
    faulty: np.ndarray,
    unsafe: np.ndarray,
    topology: Optional[Topology] = None,
    max_rounds: Optional[int] = None,
    missing_neighbours_enabled: bool = False,
) -> LabellingResult:
    """Run labelling scheme 2 (shrinking) to its fixed point.

    Parameters
    ----------
    faulty:
        Boolean fault mask; these nodes stay disabled forever.
    unsafe:
        Output of labelling scheme 1; non-faulty unsafe nodes start disabled
        and may be re-enabled.
    topology:
        Optional topology (wrap behaviour on a torus).
    max_rounds:
        Optional cap on the sweeps, by default ``4 * (width + height)``; as
        in scheme 1, a pattern needing ``max_rounds`` or more rounds raises
        ``RuntimeError("labelling scheme 2 did not converge")``.
    missing_neighbours_enabled:
        On a mesh, whether a neighbour position that falls outside the grid
        counts as an *enabled* neighbour.  The physical network has no such
        node, so the faithful baseline behaviour (used for the FB/FP models)
        is ``False``.  The per-component emulation of the centralized
        minimum-faulty-polygon solution sets it to ``True`` so that mesh
        borders do not artificially pin non-faulty nodes inside a polygon;
        see ``repro.core.mfp`` for the discussion.

    Returns
    -------
    LabellingResult
        ``labels`` is the disabled mask; ``rounds`` counts the rounds in
        which some node became enabled.
    """
    if faulty.shape != unsafe.shape:
        raise ValueError("faulty and unsafe masks must have the same shape")
    wrap = isinstance(topology, Torus2D)
    width, height = faulty.shape
    cap = max_rounds if max_rounds is not None else 4 * (width + height)
    # The enabled flags as 0/1 in one padded buffer, so a node's enabled
    # neighbour count is the sum of four slices.  The halo holds what a
    # position beyond the mesh border counts as: enabled only under
    # *missing_neighbours_enabled* (a torus has no such positions).
    halo = 1 if missing_neighbours_enabled and not wrap else 0
    padded = np.full((width + 2, height + 2), halo, dtype=np.uint8)
    enabled = padded[1:-1, 1:-1]
    disabled = unsafe | faulty  # faulty nodes are disabled by definition
    np.logical_not(disabled, out=enabled, casting="unsafe")
    # Only disabled non-faulty nodes can change, and they only ever enable.
    candidates = disabled & ~faulty
    west, east, south, north = _neighbour_slices(padded)
    count = np.empty((width, height), dtype=np.uint8)
    newly_enabled = np.empty((width, height), dtype=bool)
    rounds = 0
    for _ in range(cap):
        if wrap:
            _wrap_halo(padded)
        np.add(west, east, out=count)
        count += south
        count += north
        np.greater_equal(count, 2, out=newly_enabled)
        newly_enabled &= candidates
        if not newly_enabled.any():
            break
        enabled |= newly_enabled
        np.greater(candidates, newly_enabled, out=candidates)
        rounds += 1
    else:
        raise RuntimeError("labelling scheme 2 did not converge")
    return LabellingResult(labels=enabled == 0, rounds=rounds)


def faults_to_mask(faults, width: int, height: int) -> np.ndarray:
    """Build a boolean ``[x, y]`` fault mask from a coordinate collection.

    The whole collection is validated and written with one fancy-index
    assignment; an out-of-grid fault raises ``ValueError`` naming the first
    offending coordinate (in iteration order).
    """
    from repro.geometry.masks import validated_coords

    mask = np.zeros((width, height), dtype=bool)
    coords = validated_coords(faults, width, height, kind="fault", where="grid")
    if coords.size:
        mask[coords[:, 0], coords[:, 1]] = True
    return mask
