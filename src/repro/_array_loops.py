"""Loop-nest reference implementation of the hot array primitives.

Every primitive of :mod:`repro._array_ops` -- component labelling,
span-fill fixpoints, the Definition-1 check, jump-table scans,
traversal-window lane scans and the netsim grant kernel -- has a second
implementation here as a plain scalar loop nest over NumPy arrays:
explicit loops, preallocated outputs, no fancy indexing.  Bundled as
:data:`OPS`, it is the reference the vectorized primitives are pinned
against.  ``tests/test_array_ops.py`` compares each primitive on
Hypothesis-generated inputs and swaps :data:`OPS` in through the
``_array_ops.active_ops`` seam to check whole routes and netsim runs;
``benchmarks/bench_backends.py`` times both sets on the same workloads.

Each function must be *bit-identical* to its vectorized NumPy counterpart
-- same values, same tie-breaking, same first-occurrence semantics --
which the Hypothesis suites assert against the set-based oracles as well.
Keep any change to a kernel here in lockstep with the NumPy
implementation.
"""

from __future__ import annotations

import numpy as np

from repro._array_ops import ArrayOps


def label_components(mask: np.ndarray, connectivity: int):
    """Label the connected components of a boolean mask (canonical order).

    Stack-based flood fill in C-scan order: the first cell of a component
    encountered by the ``(x, y)`` scan is its lexicographically smallest
    node, so labels ``1..count`` come out directly in the canonical order
    :func:`repro._array_ops.canonicalise_labels` produces -- no relabel
    pass needed.  *connectivity* is 8 (diagonal contact merges) or 4.
    """
    width, height = mask.shape
    labels = np.zeros((width, height), dtype=np.int32)
    stack_x = np.empty(width * height, dtype=np.int64)
    stack_y = np.empty(width * height, dtype=np.int64)
    count = 0
    for seed_x in range(width):
        for seed_y in range(height):
            if not mask[seed_x, seed_y] or labels[seed_x, seed_y] != 0:
                continue
            count += 1
            labels[seed_x, seed_y] = count
            stack_x[0] = seed_x
            stack_y[0] = seed_y
            top = 1
            while top > 0:
                top -= 1
                x = stack_x[top]
                y = stack_y[top]
                for dx in range(-1, 2):
                    for dy in range(-1, 2):
                        if dx == 0 and dy == 0:
                            continue
                        if connectivity == 4 and dx != 0 and dy != 0:
                            continue
                        nx = x + dx
                        ny = y + dy
                        if nx < 0 or nx >= width or ny < 0 or ny >= height:
                            continue
                        if mask[nx, ny] and labels[nx, ny] == 0:
                            labels[nx, ny] = count
                            stack_x[top] = nx
                            stack_y[top] = ny
                            top += 1
    return labels, count


def span_fill(mask: np.ndarray) -> np.ndarray:
    """One concave-section fill pass: row spans union column spans.

    Both passes read the *input* mask (not the partially built output), so
    the result equals the vectorized ``row_fill(mask) | column_fill(mask)``.
    """
    width, height = mask.shape
    out = np.zeros((width, height), dtype=np.bool_)
    for x in range(width):
        first = -1
        last = -1
        for y in range(height):
            if mask[x, y]:
                if first < 0:
                    first = y
                last = y
        if first >= 0:
            for y in range(first, last + 1):
                out[x, y] = True
    for y in range(height):
        first = -1
        last = -1
        for x in range(width):
            if mask[x, y]:
                if first < 0:
                    first = x
                last = x
        if first >= 0:
            for x in range(first, last + 1):
                out[x, y] = True
    return out


def hull_fixpoint(mask: np.ndarray) -> np.ndarray:
    """The minimum orthogonal convex hull of *mask* (span-fill fixed point).

    Runs alternating in-place row/column span fills until a full sweep adds
    nothing.  Every filled cell lies between two member cells of a line, so
    it belongs to *any* orthogonal convex superset; orthogonal convex sets
    are closed under intersection, so the fixed point is the unique minimum
    hull -- the same set the vectorized span-fill iteration converges to.
    """
    width, height = mask.shape
    out = mask.copy()
    changed = True
    while changed:
        changed = False
        for x in range(width):
            first = -1
            last = -1
            for y in range(height):
                if out[x, y]:
                    if first < 0:
                        first = y
                    last = y
            if first >= 0:
                for y in range(first, last + 1):
                    if not out[x, y]:
                        out[x, y] = True
                        changed = True
        for y in range(height):
            first = -1
            last = -1
            for x in range(width):
                if out[x, y]:
                    if first < 0:
                        first = x
                    last = x
            if first >= 0:
                for x in range(first, last + 1):
                    if not out[x, y]:
                        out[x, y] = True
                        changed = True
    return out


def nonconvex_labels(labels: np.ndarray, count: int) -> np.ndarray:
    """Labels (``1..count``) whose cell sets violate Definition 1.

    Two grid sweeps with per-label last-seen trackers: a label is flagged
    when two consecutive same-line cells of it are more than one step
    apart, exactly the gap test of the vectorized sort-based version.
    Returns the flagged labels ascending (``np.unique`` order).
    """
    width, height = labels.shape
    flagged = np.zeros(count + 1, dtype=np.bool_)
    last_x = np.full(count + 1, -2, dtype=np.int64)
    last_y = np.full(count + 1, -2, dtype=np.int64)
    for x in range(width):
        for y in range(height):
            label = labels[x, y]
            if label > 0:
                if last_x[label] == x and last_y[label] != y - 1:
                    flagged[label] = True
                last_x[label] = x
                last_y[label] = y
    for label in range(count + 1):
        last_x[label] = -2
        last_y[label] = -2
    for y in range(height):
        for x in range(width):
            label = labels[x, y]
            if label > 0:
                if last_y[label] == y and last_x[label] != x - 1:
                    flagged[label] = True
                last_x[label] = x
                last_y[label] = y
    total = 0
    for label in range(1, count + 1):
        if flagged[label]:
            total += 1
    out = np.empty(total, dtype=np.int64)
    position = 0
    for label in range(1, count + 1):
        if flagged[label]:
            out[position] = label
            position += 1
    return out


def jump_tables(disabled: np.ndarray):
    """Per-row / per-column next-blocked-cell tables of one disabled mask.

    ``east[x, y]`` is the smallest ``x' > x`` with ``(x', y)`` disabled
    (sentinel ``width`` when clear to the border), and likewise west /
    north / south with sentinels ``-1`` / ``height`` / ``-1`` -- the
    contract of :class:`repro.routing.engine.JumpTables`.
    """
    width, height = disabled.shape
    east = np.empty((width, height), dtype=np.int64)
    west = np.empty((width, height), dtype=np.int64)
    north = np.empty((width, height), dtype=np.int64)
    south = np.empty((width, height), dtype=np.int64)
    for y in range(height):
        nearest = width
        for x in range(width - 1, -1, -1):
            east[x, y] = nearest
            if disabled[x, y]:
                nearest = x
        nearest = -1
        for x in range(width):
            west[x, y] = nearest
            if disabled[x, y]:
                nearest = x
    for x in range(width):
        nearest = height
        for y in range(height - 1, -1, -1):
            north[x, y] = nearest
            if disabled[x, y]:
                nearest = y
        nearest = -1
        for y in range(height):
            south[x, y] = nearest
            if disabled[x, y]:
                nearest = y
    return east, west, north, south


def scan_lanes(
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
    """Scan ring lanes ``lane_lo+1 .. lane_hi`` of every row.

    Per row, walks the packed ring from the entry position in the travel
    direction and records the first exit lane (node passed the region and
    the e-cube follow-up hop is clear) and the first failure lane (node
    invalid: off the mesh or inside another region), with the argmax
    defaults of the vectorized scan (``lane_lo + 1`` when none found).
    Early-exits a row once both are known -- the win over the matrix scan.
    """
    rows = entry.shape[0]
    has_exit = np.zeros(rows, dtype=np.bool_)
    has_fail = np.zeros(rows, dtype=np.bool_)
    first_exit = np.full(rows, lane_lo + 1, dtype=np.int64)
    first_fail = np.full(rows, lane_lo + 1, dtype=np.int64)
    for row in range(rows):
        length = lengths[row]
        start = starts[row]
        begin = entry[row]
        direction = step[row]
        mtype = message_type[row]
        dx = dest_x[row]
        dy = dest_y[row]
        stop = lane_hi
        if stop > length:
            stop = length
        found_exit = False
        found_fail = False
        for lane in range(lane_lo + 1, stop + 1):
            if found_exit and found_fail:
                break
            index = start + (begin + direction * lane) % length
            if not valid[index]:
                if not found_fail:
                    found_fail = True
                    has_fail[row] = True
                    first_fail[row] = lane
                continue
            if found_exit:
                continue
            node_x = ring_x[index]
            node_y = ring_y[index]
            geo = (geo_bits[index] >> mtype) & 1
            if mtype <= 1:
                passed = geo != 0 or node_x == dx
            else:
                passed = geo != 0 or node_y == dy
            if not passed:
                continue
            if dx > node_x:
                step_x = 1
            elif dx < node_x:
                step_x = -1
            else:
                step_x = 0
            if step_x == 0:
                if dy > node_y:
                    step_y = 1
                elif dy < node_y:
                    step_y = -1
                else:
                    step_y = 0
            else:
                step_y = 0
            if step_x == 0 and step_y == 0:
                clear = True
            else:
                follow_x = node_x + step_x
                follow_y = node_y + step_y
                if follow_x < 0:
                    follow_x = 0
                elif follow_x >= width:
                    follow_x = width - 1
                if follow_y < 0:
                    follow_y = 0
                elif follow_y >= height:
                    follow_y = height - 1
                clear = not disabled[follow_x, follow_y]
            if clear:
                found_exit = True
                has_exit[row] = True
                first_exit[row] = lane
    return has_exit, first_exit, has_fail, first_fail


def grant_messages(
    requested: np.ndarray, active: np.ndarray, occupied: np.ndarray
) -> np.ndarray:
    """One netsim arbitration cycle: grant each free channel's lowest bidder.

    Returns the granted message indices ordered by requested channel
    ascending -- exactly the ``lexsort``-leader selection of the array
    simulator.  Implemented as one combined-key sort (``channel * big +
    message``), so no per-channel scratch array is allocated.
    """
    requests = requested.shape[0]
    big = np.int64(1)
    for i in range(requests):
        if active[i] >= big:
            big = active[i] + 1
    keys = np.empty(requests, dtype=np.int64)
    for i in range(requests):
        keys[i] = requested[i] * big + active[i]
    keys.sort()
    granted_count = 0
    previous = np.int64(-1)
    for i in range(requests):
        channel = keys[i] // big
        if channel != previous:
            previous = channel
            if not occupied[channel]:
                granted_count += 1
    granted = np.empty(granted_count, dtype=np.int64)
    position = 0
    previous = np.int64(-1)
    for i in range(requests):
        channel = keys[i] // big
        if channel != previous:
            previous = channel
            if not occupied[channel]:
                granted[position] = keys[i] % big
                position += 1
    return granted


OPS = ArrayOps(
    key="loops",
    label_components=label_components,
    span_fill=span_fill,
    hull_fixpoint=hull_fixpoint,
    nonconvex_labels=nonconvex_labels,
    jump_tables=jump_tables,
    scan_lanes=scan_lanes,
    grant_messages=grant_messages,
)
