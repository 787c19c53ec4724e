"""Property-based tests (hypothesis) for the core invariants."""

from hypothesis import given, settings, strategies as st

from repro.api import get_construction
from repro.core import reference
from repro.core.components import find_components
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons, component_minimum_polygon
from repro.core.regions import convexify_regions, extract_regions, mean_region_size
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.distributed.dmfp import build_minimum_polygons_distributed, component_outcome
from repro.faults.scenario import generate_scenario
from repro.geometry.boundary import boundary_ring, region_perimeter
from repro.geometry.orthogonal import is_orthogonal_convex, orthogonal_convex_hull
from repro.geometry.rectangle import bounding_rectangle
from repro.geometry.sections import concave_sections, section_nodes
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Torus2D

#: Strategy: a small set of distinct fault coordinates on a 12x12 grid.
fault_sets = st.sets(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=24
)

#: Strategy: a connected-ish blob grown from a seed (used for hull checks).
coords = st.tuples(st.integers(0, 11), st.integers(0, 11))


@settings(max_examples=60, deadline=None)
@given(fault_sets)
def test_hull_is_minimal_orthogonal_convex_superset(region):
    hull = orthogonal_convex_hull(region)
    assert set(region) <= hull
    assert is_orthogonal_convex(hull)
    # Minimality: the hull fits inside the bounding box, which is itself an
    # orthogonal convex superset.
    box = bounding_rectangle(region)
    assert all(node in box for node in hull)
    # Idempotence.
    assert orthogonal_convex_hull(hull) == hull


@settings(max_examples=60, deadline=None)
@given(fault_sets)
def test_single_pass_section_fill_equals_hull_for_components(region):
    # For every 8-connected component, one pass of concave row/column
    # filling is already the minimum orthogonal convex hull -- the invariant
    # the distributed notification phase relies on.
    for component in find_components(region):
        union = set(component.nodes) | section_nodes(concave_sections(component.nodes))
        assert union == set(orthogonal_convex_hull(component.nodes))


@settings(max_examples=60, deadline=None)
@given(fault_sets)
def test_components_partition_faults_and_are_adjacent_closed(region):
    components = find_components(region)
    seen = set()
    for component in components:
        assert component.nodes, "components are never empty"
        assert not (seen & component.nodes)
        seen |= component.nodes
    assert seen == set(region)


@settings(max_examples=40, deadline=None)
@given(fault_sets)
def test_boundary_ring_never_enters_the_region(region):
    for component in find_components(region):
        ring = boundary_ring(component.nodes)
        assert not (set(ring) & component.nodes)
        assert len(ring) >= region_perimeter(component.nodes) // 2


@settings(max_examples=30, deadline=None)
@given(fault_sets)
def test_construction_hierarchy_invariants(region):
    faults = sorted(region)
    topology = Mesh2D(12, 12)
    fb = build_faulty_blocks(faults, topology=topology)
    fp = build_sub_minimum_polygons(faults, topology=topology)
    mfp = build_minimum_polygons(faults, topology=topology, compute_rounds=False)

    fb_disabled = fb.grid.disabled_set()
    fp_disabled = fp.grid.disabled_set()
    mfp_disabled = mfp.grid.disabled_set()

    # Every construction covers all faults.
    assert set(faults) <= mfp_disabled <= fp_disabled <= fb_disabled
    # Region shapes.
    assert all(r.is_rectangle for r in fb.regions)
    assert all(r.is_orthogonal_convex for r in fp.regions)
    assert all(r.is_orthogonal_convex for r in mfp.regions)
    # Counts are consistent with the sets.
    assert fb.num_disabled_nonfaulty == len(fb_disabled) - len(set(faults))
    assert mfp.num_disabled_nonfaulty <= fp.num_disabled_nonfaulty


@settings(max_examples=40, deadline=None)
@given(fault_sets, st.booleans())
def test_distributed_equals_centralized(region, torus):
    faults = sorted(region)
    topology = Torus2D(12, 12) if torus else Mesh2D(12, 12)
    centralized = build_minimum_polygons(faults, topology=topology, compute_rounds=False)
    distributed = build_minimum_polygons_distributed(faults, topology=topology)
    assert distributed.grid.disabled_set() == centralized.grid.disabled_set()
    # The shape memo against the exact per-component construction.
    fault_set = set(faults)
    exact = distributed.per_component
    for component, entry in zip(distributed.components, exact):
        outcome = component_outcome(component, fault_set)
        assert outcome.rounds == entry.rounds
        assert set(map(tuple, outcome.notified.tolist())) == entry.plan.disabled_nodes
    assert distributed.rounds == max(entry.rounds for entry in exact)
    # The disabled grid is the union of the exact polygons, after the same
    # convexity repair.
    grid = StatusGrid(topology, faults)
    for entry in exact:
        for node in entry.polygon:
            if topology.contains(node):
                grid.mark_disabled(node)
    convexify_regions(grid)
    assert distributed.grid.disabled_set() == grid.disabled_set()


@settings(max_examples=40, deadline=None)
@given(fault_sets)
def test_mfp_per_component_is_exactly_the_hull(region):
    for component in find_components(region):
        polygon = component_minimum_polygon(component).polygon
        assert polygon == orthogonal_convex_hull(component.nodes)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
def test_region_extraction_partitions_disabled_nodes(disabled):
    regions = extract_regions(disabled, set())
    union = set()
    for fault_region in regions:
        assert not (union & fault_region.nodes)
        union |= fault_region.nodes
    assert union == set(disabled)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 120),
    st.sampled_from(["random", "clustered"]),
    st.integers(0, 2**16),
    st.booleans(),
    st.booleans(),
)
def test_construction_regions_partition_disabled_and_faulty_nodes(
    num_faults, distribution, seed, torus, kernel
):
    # mean_region_size is the disabled-node count over the region count;
    # that equals the mean of the region sizes only because every
    # construction's regions partition its disabled cells.
    scenario = generate_scenario(num_faults, width=20, model=distribution, seed=seed)
    topology = Torus2D(20, 20) if torus else Mesh2D(20, 20)
    for key in ("fb", "fp", "mfp", "cmfp", "dmfp"):
        build = get_construction(key).build if kernel else reference.BUILDERS[key]
        result = build(scenario.faults, topology)
        grid, regions = result.grid, result.regions
        sizes = sum(r.size for r in regions)
        assert sizes == grid.num_disabled, key
        assert sum(r.num_faulty for r in regions) == grid.num_faulty, key
        assert mean_region_size(grid, regions) == sizes / len(regions), key
        if kernel:
            assert result.mean_region_size == result.raw.mean_region_size, key
