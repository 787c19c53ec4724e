"""The minimum faulty polygon model (MFP) -- the paper's contribution.

Both centralized solutions from Section 3.1 are implemented:

* **Solution A** (:func:`component_polygon_via_labelling`; the whole-mesh
  build is the named reference
  :func:`repro.core.reference.build_minimum_polygons_via_labelling`): for
  every faulty component, emulate labelling scheme 1 to grow the component
  into its *virtual faulty block* (the bounding box) and labelling scheme 2
  to shrink the block back to an orthogonal convex polygon; pile the
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

Solution B builds from the :class:`~repro.core.components.ComponentTable`
of the faults.  A component that fills its bounding box is its own hull
and needs 0 rounds.  Every other component's hull and rounds depend on its
shape alone: they come from the process-wide memos :data:`shape_hull` and
:data:`shape_rounds` and are translated into place with array ops.  The
result's ``components`` and ``component_polygons`` are lazy lists, so a
sweep trial builds no :class:`~repro.core.components.FaultComponent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.components import (
    ComponentTable,
    FaultComponent,
    ShapeMemo,
    shape_cells,
    shape_key,
)
from repro.core.labelling import apply_labelling_scheme_1, apply_labelling_scheme_2
from repro.core.regions import FaultRegion, LazyList, mean_region_size, pile_polygons
from repro.faults.scenario import FaultScenario
from repro.geometry import masks
from repro.geometry.orthogonal import orthogonal_convex_hull_sets
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Topology
from repro.types import Coord, FaultRegionModel

#: Bounding-box area below which the hull fill runs on plain sets: under
#: ~8x8 cells the numpy call overhead exceeds the interpreted loop cost
#: (measured crossover; both paths are bit-identical).
_SET_HULL_AREA = 64


@dataclass(frozen=True)
class ComponentPolygon:
    """The minimum faulty polygon of a single component.

    ``polygon`` contains the component nodes plus the non-faulty nodes the
    polygon disables (the concave row/column sections); ``rounds_scheme1``
    and ``rounds_scheme2`` are the per-component emulation round counts
    (zero for the direct hull construction).
    """

    component: FaultComponent
    polygon: frozenset
    rounds_scheme1: int = 0
    rounds_scheme2: int = 0

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
    #: Final fault regions; a lazy :class:`~repro.core.regions.LazyList`,
    #: built on first access to a region.
    regions: Sequence[FaultRegion]
    #: The fault components, in :func:`find_components` order; a lazy
    #: :class:`~repro.core.regions.LazyList` from Solution B.
    components: Sequence[FaultComponent]
    #: Each component's polygon, in component order; lazy like
    #: ``components``.
    component_polygons: Sequence[ComponentPolygon]
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


def _shape_hull(key: bytes) -> np.ndarray:
    """The minimum orthogonal convex hull of a shape, as a sorted read-only
    ``(n, 2)`` array relative to the shape's bounding-box corner."""
    cells = shape_cells(key).astype(np.int64)
    width, height = int(cells[:, 0].max()) + 1, int(cells[:, 1].max()) + 1
    if _SET_HULL_AREA < width * height <= masks.MAX_LOCAL_AREA:
        mask = np.zeros((width, height), dtype=bool)
        mask[cells[:, 0], cells[:, 1]] = True
        hull = np.column_stack(np.nonzero(masks.hull_mask(mask)))
    else:
        # Below the crossover the interpreted set fill beats the numpy call
        # overhead on a tiny array; results are identical either way.
        nodes = orthogonal_convex_hull_sets(map(tuple, cells.tolist()))
        hull = np.array(sorted(nodes), dtype=np.int64).reshape(-1, 2)
    hull.flags.writeable = False  # memo entries are shared by every caller
    return hull


#: Process-wide memo: shape key -> the shape's hull (:func:`_shape_hull`).
shape_hull = ShapeMemo(lambda keys: [_shape_hull(key) for key in keys])


def component_minimum_polygon(component: FaultComponent) -> ComponentPolygon:
    """Return the minimum faulty polygon of one component (hull fill).

    This is centralized Solution B restricted to a single component: the
    concave row and column sections are filled until the region is
    orthogonal convex, yielding the minimum orthogonal convex polygon that
    covers every fault of the component.  Served by :data:`shape_hull`.
    """
    box = component.bounding_box
    hull = shape_hull(shape_key(component.nodes))
    xs = (hull[:, 0] + box.min_x).tolist()
    ys = (hull[:, 1] + box.min_y).tolist()
    return ComponentPolygon(component=component, polygon=frozenset(zip(xs, ys)))


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
    return ComponentPolygon(
        component=component,
        polygon=frozenset(polygon),
        rounds_scheme1=scheme1.rounds,
        rounds_scheme2=scheme2.rounds,
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


def emulate_rounds_each(shapes: Sequence[bytes]) -> List[int]:
    """Per-shape labelling-emulation round counts, computed batched.

    *shapes* are :func:`~repro.core.components.shape_key` keys.  Shapes
    that fill their bounding box (singletons, solid blocks) need zero
    rounds -- scheme 1 starts at its fixed point and scheme 2 has nothing
    to re-enable -- and are skipped outright.  The remaining shapes are
    padded to shared canvas sizes, stacked along a leading axis and
    emulated together: one whole-stack array sweep advances every shape's
    labelling by one round, with per-slice change tracking recovering the
    individual round counts.  Results are identical to looping
    :func:`component_polygon_via_labelling` (property-tested).
    """
    rounds = [0] * len(shapes)
    pending: List[Tuple[int, int, int, np.ndarray, int, int]] = []
    for position, key in enumerate(shapes):
        cells = shape_cells(key)
        width, height = int(cells[:, 0].max()) + 1, int(cells[:, 1].max()) + 1
        if width * height == len(cells):
            continue  # already its own fixed point: zero rounds
        # Canvases are padded to power-of-two sizes so that many shapes
        # share one stacked batch; the padding cells stay safe in scheme 1
        # and enabled in scheme 2, so they never influence a shape.  Large
        # shapes keep their exact bounding box -- they rarely share a
        # batch, and the pow-2 padding would only add dead cells to every
        # one of their (many) sweep iterations.
        if width * height > 4096:
            canvas_w, canvas_h = width, height
        else:
            canvas_w = 1 << (width - 1).bit_length()
            canvas_h = 1 << (height - 1).bit_length()
        pending.append((canvas_w, canvas_h, position, cells, width, height))
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
        for slot, (_, _, _, cells, width, height) in enumerate(chunk):
            faulty[slot, cells[:, 0], cells[:, 1]] = True
            virtual_block[slot, :width, :height] = True
        scheme1 = _batched_scheme1_rounds(faulty)
        scheme2 = _batched_scheme2_rounds(faulty, virtual_block)
        for slot, (_, _, position, *_) in enumerate(chunk):
            rounds[position] = int(scheme1[slot] + scheme2[slot])
    return rounds


#: Process-wide memo: shape key -> the shape's CMFP rounds
#: (:func:`emulate_rounds_each`, one batch per lookup's misses).
shape_rounds = ShapeMemo(emulate_rounds_each)


def _component_polygons(
    components: Sequence[FaultComponent],
    table: ComponentTable,
    hulls: Sequence[np.ndarray],
) -> List[ComponentPolygon]:
    """Every component's :class:`ComponentPolygon` (a lazy-list builder)."""
    polygons = [ComponentPolygon(component, component.nodes) for component in components]
    for index, hull in zip(table.irregular.tolist(), hulls):
        xs = (hull[:, 0] + table.min_x[index]).tolist()
        ys = (hull[:, 1] + table.min_y[index]).tolist()
        polygons[index] = ComponentPolygon(components[index], frozenset(zip(xs, ys)))
    return polygons


def build_minimum_polygons(
    faults: Sequence[Coord],
    topology: Optional[Topology] = None,
    width: int = 100,
    height: Optional[int] = None,
    compute_rounds: bool = True,
) -> MinimumPolygonConstruction:
    """Construct minimum faulty polygons (centralized Solution B, default).

    Phase 1 groups the faults into 8-adjacent components (one
    :class:`~repro.core.components.ComponentTable`); phase 2 fills each
    component's concave row and column sections, which only the
    components that do not fill their bounding box have (hulls from the
    :data:`shape_hull` memo); the superseding rule piles the
    per-component results.  The reported ``rounds`` is the CMFP emulation
    cost, i.e. the maximum per-component labelling rounds
    (:data:`shape_rounds`), which the paper uses for the CMFP curve of
    Figure 11 (the hull fill itself is a centralized computation and
    exchanges no messages).  Pass ``compute_rounds=False`` to skip the
    emulation when only the node statuses are needed (Figures 9 and 10).
    """
    if topology is None:
        topology = Mesh2D(width, height if height is not None else width)
    table = ComponentTable.from_faults(faults)
    grid = StatusGrid(topology, faults)
    keys = [table.keys[index] for index in table.irregular.tolist()]
    hulls = shape_hull.lookup(keys)
    # Round accounting follows the labelling emulation (Solution A).
    rounds = max(shape_rounds.lookup(keys), default=0) if compute_rounds else 0
    regions, region_index = pile_polygons(grid, table.place(table.irregular, hulls))
    components = LazyList(len(table), table.materialise)
    return MinimumPolygonConstruction(
        grid=grid,
        regions=regions,
        components=components,
        component_polygons=LazyList(
            len(table), _component_polygons, components, table, hulls
        ),
        rounds=rounds,
        region_index=region_index,
    )


def build_minimum_polygons_for_scenario(
    scenario: FaultScenario,
) -> MinimumPolygonConstruction:
    """Construct minimum faulty polygons for a :class:`FaultScenario`."""
    return build_minimum_polygons(scenario.faults, topology=scenario.topology())
