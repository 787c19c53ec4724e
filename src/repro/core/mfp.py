"""The minimum faulty polygon model (MFP) -- the paper's contribution.

Both centralized solutions from Section 3.1 are implemented:

* **Solution A** (``build_minimum_polygons_via_labelling``): for every
  faulty component, emulate labelling scheme 1 to grow the component into
  its *virtual faulty block* (the bounding box) and labelling scheme 2 to
  shrink the block back to an orthogonal convex polygon; pile the
  per-component diagrams with the superseding rule.
* **Solution B** (``build_minimum_polygons``): for every faulty component,
  directly disable all nodes in its concave row and column sections, i.e.
  take the minimum orthogonal convex hull of the component; pile with the
  superseding rule.  This is the default because the hull fill is the
  provably minimum construction and is cheaper to compute.

Both produce the same disabled set (asserted by the test suite) except for
one documented boundary effect: labelling scheme 2 can never re-enable a
non-faulty node whose enabled neighbours fall outside the physical mesh
(e.g. a mesh corner wedged between two faults), while the hull does not need
that node.  Solution A therefore runs scheme 2 with virtual enabled
neighbours beyond the mesh border (``missing_neighbours_enabled=True``) so
that the two solutions agree everywhere; the flag and its rationale are
described in :func:`repro.core.labelling.apply_labelling_scheme_2`.

The number of rounds reported for the centralized solution (CMFP in
Figure 11) is the number of synchronous neighbour-exchange rounds of the
per-component labelling emulation; components are processed in parallel in
the network, so the network-wide figure is the maximum over components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.components import FaultComponent, find_components
from repro.core.labelling import apply_labelling_scheme_1, apply_labelling_scheme_2
from repro.core.regions import FaultRegion, convexify_regions, mean_region_size
from repro.faults.scenario import FaultScenario
from repro.geometry import masks
from repro.geometry.orthogonal import orthogonal_convex_hull_sets
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Topology
from repro.types import Coord, FaultRegionModel

#: Bounding-box area below which the per-component hull fill runs on plain
#: sets: under ~8x8 cells the numpy call overhead exceeds the interpreted
#: loop cost (measured crossover; both paths are bit-identical).
_SET_HULL_AREA = 64


@dataclass(frozen=True)
class ComponentPolygon:
    """The minimum faulty polygon of a single component.

    ``polygon`` contains the component nodes plus the non-faulty nodes the
    polygon disables (the concave row/column sections); ``rounds_scheme1``
    and ``rounds_scheme2`` are the per-component emulation round counts
    (zero for the direct hull construction).

    ``polygon_coords`` optionally carries the polygon as an ``(n, 2)``
    coordinate array (present when the mask kernel built the polygon).  It
    is redundant with ``polygon`` -- it exists so the network-wide assembly
    and the session caches can concatenate whole arrays instead of
    iterating coordinate sets; it is excluded from equality/hashing.
    """

    component: FaultComponent
    polygon: frozenset
    rounds_scheme1: int = 0
    rounds_scheme2: int = 0
    polygon_coords: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def added_nodes(self) -> frozenset:
        """Non-faulty nodes the polygon disables for this component."""
        return frozenset(self.polygon - self.component.nodes)

    @property
    def rounds(self) -> int:
        """Rounds of the per-component labelling emulation."""
        return self.rounds_scheme1 + self.rounds_scheme2


@dataclass
class MinimumPolygonConstruction:
    """Result of the centralized minimum faulty polygon construction."""

    grid: StatusGrid
    #: Final fault regions; a lazy :class:`~repro.core.regions.RegionList`,
    #: built on first access to a region.
    regions: Sequence[FaultRegion]
    components: List[FaultComponent]
    component_polygons: List[ComponentPolygon]
    rounds: int
    model: FaultRegionModel = FaultRegionModel.MINIMUM_FAULTY_POLYGON
    #: Grid mapping every cell to the index of the region containing it
    #: (-1 outside every region); the routing layer's O(1) membership test.
    region_index: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def num_disabled_nonfaulty(self) -> int:
        """Non-faulty nodes disabled by the polygons (Figure 9 quantity)."""
        return self.grid.num_disabled_nonfaulty

    @property
    def mean_region_size(self) -> float:
        """Average polygon size in nodes (Figure 10 quantity)."""
        return mean_region_size(self.grid, self.regions)

    @property
    def polygons(self) -> Sequence[FaultRegion]:
        """Alias for :attr:`regions` using the paper's terminology."""
        return self.regions

    def all_orthogonal_convex(self) -> bool:
        """Whether every final region satisfies Definition 1."""
        return all(region.is_orthogonal_convex for region in self.regions)


def component_minimum_polygon(component: FaultComponent) -> ComponentPolygon:
    """Return the minimum faulty polygon of one component (hull fill).

    This is centralized Solution B restricted to a single component: the
    concave row and column sections are filled until the region is
    orthogonal convex, yielding the minimum orthogonal convex polygon that
    covers every fault of the component.
    """
    nodes = component.nodes
    box = component.bounding_box
    min_x, min_y = box.min_x, box.min_y
    width, height = box.width, box.height
    if width * height == len(nodes):
        # The component already fills its bounding box (singletons and
        # solid blocks, the overwhelming majority in random fault
        # patterns): it is its own hull, no rasterisation needed; the
        # assembly batches the coordinates of all such polygons into a
        # single array.
        return ComponentPolygon(component=component, polygon=nodes)
    if _SET_HULL_AREA < width * height <= masks.MAX_LOCAL_AREA:
        pts = np.asarray(list(nodes))
        mask = np.zeros((width, height), dtype=bool)
        mask[pts[:, 0] - min_x, pts[:, 1] - min_y] = True
        hull = masks.hull_mask(mask)
        hull_xs, hull_ys = np.nonzero(hull)
        hull_xs = hull_xs + min_x
        hull_ys = hull_ys + min_y
        coords = np.empty((hull_xs.size, 2), dtype=hull_xs.dtype)
        coords[:, 0] = hull_xs
        coords[:, 1] = hull_ys
        return ComponentPolygon(
            component=component,
            polygon=frozenset(zip(hull_xs.tolist(), hull_ys.tolist())),
            polygon_coords=coords,
        )
    # Below the crossover the interpreted set fill beats the numpy call
    # overhead on a tiny array; results are identical either way.
    hull = orthogonal_convex_hull_sets(component.nodes)
    return ComponentPolygon(component=component, polygon=frozenset(hull))


def component_polygon_via_labelling(
    component: FaultComponent,
) -> ComponentPolygon:
    """Return the component's polygon via the labelling-scheme emulation.

    This is centralized Solution A restricted to a single component: scheme
    1 grows the component into its virtual faulty block (bounding box) and
    scheme 2 shrinks the block back.  The round counts of both phases are
    recorded; they are what the CMFP curve of Figure 11 measures.
    """
    box = component.bounding_box
    width, height = box.width, box.height
    local_faults = np.zeros((width, height), dtype=bool)
    for x, y in component.nodes:
        local_faults[x - box.min_x, y - box.min_y] = True

    scheme1 = apply_labelling_scheme_1(local_faults)
    # The virtual faulty block is the full bounding box; for a connected
    # component scheme 1 always grows to the full box, which the test suite
    # asserts.  Using the box directly keeps the construction faithful to
    # the paper's step 2 even in the degenerate single-node case.
    virtual_block = np.ones((width, height), dtype=bool)
    scheme2 = apply_labelling_scheme_2(
        local_faults,
        virtual_block,
        missing_neighbours_enabled=True,
    )
    polygon = {
        (box.min_x + int(x), box.min_y + int(y))
        for x, y in zip(*np.nonzero(scheme2.labels))
    }
    poly_xs, poly_ys = np.nonzero(scheme2.labels)
    return ComponentPolygon(
        component=component,
        polygon=frozenset(polygon),
        rounds_scheme1=scheme1.rounds,
        rounds_scheme2=scheme2.rounds,
        polygon_coords=np.column_stack((poly_xs + box.min_x, poly_ys + box.min_y)),
    )


def _shift3(stack: np.ndarray, dx: int, dy: int, fill: int = 0) -> np.ndarray:
    """Shift a ``[component, x, y]`` stack by ``(dx, dy)`` on the grid axes.

    3-D counterpart of :func:`repro.core.labelling._shift` (zero/*fill*
    beyond the canvas), applied to every stacked component at once.
    """
    out = np.full_like(stack, fill) if fill else np.zeros_like(stack)
    width, height = stack.shape[1], stack.shape[2]
    src_x = slice(max(0, -dx), width - max(0, dx))
    dst_x = slice(max(0, dx), width - max(0, -dx))
    src_y = slice(max(0, -dy), height - max(0, dy))
    dst_y = slice(max(0, dy), height - max(0, -dy))
    out[:, dst_x, dst_y] = stack[:, src_x, src_y]
    return out


def _batched_scheme1_rounds(faulty: np.ndarray) -> np.ndarray:
    """Per-component scheme-1 round counts over a ``[component, x, y]`` stack.

    Each slice evolves exactly as an isolated
    :func:`repro.core.labelling.apply_labelling_scheme_1` run on its own
    local grid (cells beyond a component's bounding box stay safe, matching
    the zero fill of the 2-D sweep), so the per-slice count of changing
    iterations equals the per-component ``rounds`` bit for bit.
    """
    unsafe = faulty.copy()
    rounds = np.zeros(faulty.shape[0], dtype=np.int64)
    alive = np.arange(faulty.shape[0])
    iteration = 0
    while alive.size:
        x_threat = _shift3(unsafe, 1, 0) | _shift3(unsafe, -1, 0)
        y_threat = _shift3(unsafe, 0, 1) | _shift3(unsafe, 0, -1)
        growth = x_threat & y_threat & ~unsafe
        changed = growth.any(axis=(1, 2))
        iteration += 1
        rounds[alive[changed]] = iteration
        unsafe |= growth
        # Both labelling schemes are monotone, so a slice that did not
        # change is at its fixed point forever: drop it from the stack.
        if not changed.all():
            unsafe = unsafe[changed]
            alive = alive[changed]
    return rounds


def _batched_scheme2_rounds(faulty: np.ndarray, virtual_block: np.ndarray) -> np.ndarray:
    """Per-component scheme-2 round counts (``missing_neighbours_enabled``).

    Mirrors :func:`repro.core.labelling.apply_labelling_scheme_2` with
    virtual enabled neighbours beyond the canvas border; cells outside a
    component's bounding box are enabled real cells, which is exactly what
    the flag provides at the border of a tight local grid.
    """
    disabled = virtual_block | faulty
    rounds = np.zeros(faulty.shape[0], dtype=np.int64)
    alive = np.arange(faulty.shape[0])
    iteration = 0
    while alive.size:
        enabled = (~disabled).astype(np.int8)
        count = _shift3(enabled, 1, 0, fill=1)
        count += _shift3(enabled, -1, 0, fill=1)
        count += _shift3(enabled, 0, 1, fill=1)
        count += _shift3(enabled, 0, -1, fill=1)
        newly_enabled = disabled & ~faulty & (count >= 2)
        changed = newly_enabled.any(axis=(1, 2))
        iteration += 1
        rounds[alive[changed]] = iteration
        disabled &= ~newly_enabled
        # Monotone shrinking: unchanged slices are done, drop them.
        if not changed.all():
            disabled = disabled[changed]
            faulty = faulty[changed]
            alive = alive[changed]
    return rounds


#: Upper bound on cells per batched-emulation chunk (bool arrays; a few MB).
_EMULATION_CHUNK_CELLS = 1 << 22


def emulate_rounds_each(components: Sequence[FaultComponent]) -> List[int]:
    """Per-component labelling-emulation round counts, computed batched.

    Components that fill their bounding box (singletons, solid blocks) need
    zero rounds -- scheme 1 starts at its fixed point and scheme 2 has
    nothing to re-enable -- and are skipped outright.  The remaining
    components are padded to shared canvas sizes, stacked along a leading
    axis and emulated together: one whole-stack array sweep advances every
    component's labelling by one round, with per-slice change tracking
    recovering the individual round counts.  Results are identical to
    looping :func:`component_polygon_via_labelling` (property-tested).
    """
    rounds = [0] * len(components)
    pending: List[Tuple[int, int, int, FaultComponent]] = []
    for position, component in enumerate(components):
        box = component.bounding_box
        if box.width * box.height == component.size:
            continue  # already its own fixed point: zero rounds
        # Canvases are padded to power-of-two sizes so that many components
        # share one stacked batch; the padding cells stay safe in scheme 1
        # and enabled in scheme 2, so they never influence a component.
        # Large components keep their exact bounding box -- they rarely
        # share a batch, and the pow-2 padding would only add dead cells
        # to every one of their (many) sweep iterations.
        if box.width * box.height > 4096:
            canvas_w, canvas_h = box.width, box.height
        else:
            canvas_w = 1 << (box.width - 1).bit_length()
            canvas_h = 1 << (box.height - 1).bit_length()
        pending.append((canvas_w, canvas_h, position, component))
    pending.sort(key=lambda item: (item[0], item[1], item[2]))
    start = 0
    while start < len(pending):
        canvas_w, canvas_h = pending[start][0], pending[start][1]
        limit = max(1, _EMULATION_CHUNK_CELLS // (canvas_w * canvas_h))
        chunk = [
            item
            for item in pending[start : start + limit]
            if (item[0], item[1]) == (canvas_w, canvas_h)
        ]
        start += len(chunk)
        faulty = np.zeros((len(chunk), canvas_w, canvas_h), dtype=bool)
        virtual_block = np.zeros_like(faulty)
        for slot, (_, _, _, component) in enumerate(chunk):
            box = component.bounding_box
            for x, y in component.nodes:
                faulty[slot, x - box.min_x, y - box.min_y] = True
            virtual_block[slot, : box.width, : box.height] = True
        scheme1 = _batched_scheme1_rounds(faulty)
        scheme2 = _batched_scheme2_rounds(faulty, virtual_block)
        for slot, (_, _, position, _) in enumerate(chunk):
            rounds[position] = int(scheme1[slot] + scheme2[slot])
    return rounds


def emulate_rounds(components: Sequence[FaultComponent]) -> int:
    """Maximum per-component labelling-emulation rounds (see
    :func:`emulate_rounds_each`)."""
    return max(emulate_rounds_each(components), default=0)


def assemble_minimum_polygons(
    faults: Sequence[Coord],
    topology: Topology,
    component_polygons: List[ComponentPolygon],
    rounds: int,
    components: List[FaultComponent],
) -> MinimumPolygonConstruction:
    """Pile per-component polygons into a network-wide construction result.

    Exposed so that callers that maintain the component partition and the
    per-component polygons themselves (notably the incremental
    :class:`repro.api.MeshSession`) can reuse the piling/superseding step
    without recomputing every polygon.

    The piling is a whole-array OR of the per-component polygon masks; the
    superseding rule (faulty > disabled > enabled) holds trivially because
    the injected faults are already marked faulty/disabled on the grid.
    :func:`repro.core.reference.build_mfp` piles with the rule itself.
    """
    grid = StatusGrid(topology, faults)
    arrays: List[np.ndarray] = []
    loose: List[Coord] = []
    for entry in component_polygons:
        if entry.polygon_coords is not None:
            arrays.append(entry.polygon_coords)
        else:
            loose.extend(entry.polygon)
    if loose:
        arrays.append(np.asarray(loose))
    if arrays:
        pts = np.concatenate(arrays, axis=0)
        width, height = grid.disabled.shape
        keep = (
            (pts[:, 0] >= 0)
            & (pts[:, 0] < width)
            & (pts[:, 1] >= 0)
            & (pts[:, 1] < height)
        )
        pts = pts[keep]
        grid.disabled[pts[:, 0], pts[:, 1]] = True
        grid.unsafe[pts[:, 0], pts[:, 1]] = True
    # Overlapping per-component polygons can merge into a non-convex region;
    # fill such regions to their hulls so every final region satisfies
    # Definition 1 (which the extended e-cube router depends on).
    regions, region_index = convexify_regions(grid, return_index=True)
    return MinimumPolygonConstruction(
        grid=grid,
        regions=regions,
        components=components,
        component_polygons=component_polygons,
        rounds=rounds,
        region_index=region_index,
    )


def build_minimum_polygons(
    faults: Sequence[Coord],
    topology: Optional[Topology] = None,
    width: int = 100,
    height: Optional[int] = None,
    compute_rounds: bool = True,
) -> MinimumPolygonConstruction:
    """Construct minimum faulty polygons (centralized Solution B, default).

    Phase 1 groups the faults into 8-adjacent components; phase 2 fills each
    component's concave row and column sections; the superseding rule piles
    the per-component results.  The reported ``rounds`` is the CMFP
    emulation cost, i.e. the maximum per-component labelling rounds, which
    the paper uses for the CMFP curve of Figure 11 (the hull fill itself is
    a centralized computation and exchanges no messages).  Pass
    ``compute_rounds=False`` to skip the emulation when only the node
    statuses are needed (Figures 9 and 10).
    """
    if topology is None:
        topology = Mesh2D(width, height if height is not None else width)
    components = find_components(faults)
    component_polygons = [component_minimum_polygon(c) for c in components]
    # Round accounting follows the labelling emulation (Solution A).
    rounds = emulate_rounds(components) if compute_rounds else 0
    return assemble_minimum_polygons(faults, topology, component_polygons, rounds, components)


def build_minimum_polygons_via_labelling(
    faults: Sequence[Coord],
    topology: Optional[Topology] = None,
    width: int = 100,
    height: Optional[int] = None,
) -> MinimumPolygonConstruction:
    """Construct minimum faulty polygons via the labelling emulation
    (centralized Solution A)."""
    if topology is None:
        topology = Mesh2D(width, height if height is not None else width)
    components = find_components(faults)
    component_polygons = [component_polygon_via_labelling(c) for c in components]
    rounds = max((entry.rounds for entry in component_polygons), default=0)
    return assemble_minimum_polygons(faults, topology, component_polygons, rounds, components)


def build_minimum_polygons_for_scenario(
    scenario: FaultScenario,
) -> MinimumPolygonConstruction:
    """Construct minimum faulty polygons for a :class:`FaultScenario`."""
    return build_minimum_polygons(scenario.faults, topology=scenario.topology())
