"""Property-based tests for the routing substrate and label monotonicity."""

from hypothesis import given, settings, strategies as st

from repro.core.faulty_block import build_faulty_blocks
from repro.core.labelling import apply_labelling_scheme_1, faults_to_mask
from repro.core.mfp import build_minimum_polygons
from repro.mesh.topology import Mesh2D, Torus2D
from repro.routing.channels import assign_channels
from repro.routing.ecube import ecube_path, manhattan_distance
from repro.routing.extended_ecube import ExtendedECubeRouter
from repro.routing.registry import get_router

MESH = Mesh2D(12, 12)

coords = st.tuples(st.integers(0, 11), st.integers(0, 11))
fault_sets = st.sets(coords, min_size=0, max_size=14)


@settings(max_examples=60, deadline=None)
@given(coords, coords)
def test_ecube_paths_are_minimal_and_adjacent(source, destination):
    path = ecube_path(source, destination)
    assert path[0] == source and path[-1] == destination
    assert len(path) == manhattan_distance(source, destination) + 1
    for a, b in zip(path, path[1:]):
        assert manhattan_distance(a, b) == 1


@settings(max_examples=40, deadline=None)
@given(fault_sets, coords, coords)
def test_extended_ecube_delivered_paths_are_well_formed(faults, source, destination):
    construction = build_minimum_polygons(sorted(faults), topology=MESH)
    router = ExtendedECubeRouter(MESH, construction.regions)
    result = router.route(source, destination)
    # Whatever the outcome, the path starts at the source and never enters a
    # disabled node or leaves the mesh.
    assert result.path[0] == source
    assert all(MESH.contains(node) for node in result.path)
    assert not (set(result.path) & router.disabled) or router.is_disabled(source)
    for a, b in zip(result.path, result.path[1:]):
        assert manhattan_distance(a, b) == 1
    if result.delivered:
        assert result.path[-1] == destination
        assert result.detour >= 0
        assignment = assign_channels(result)
        assert len(assignment.channels) == result.hops
    elif router.is_disabled(source) or router.is_disabled(destination):
        assert result.reason.endswith("disabled")


@settings(max_examples=80, deadline=None)
@given(fault_sets, coords, coords, st.booleans())
def test_ecube_router_follows_the_ecube_path(faults, source, destination, torus):
    # The definition of base e-cube routing: walk ecube_path and fail at
    # its first disabled node, with no detour (mesh-style paths on a torus).
    topology = Torus2D(12, 12) if torus else MESH
    construction = build_minimum_polygons(sorted(faults), topology=topology)
    router = get_router("ecube").build(construction)
    result = router.route(source, destination)
    path = ecube_path(source, destination)
    blocked = [index for index, node in enumerate(path) if router.is_disabled(node)]
    assert result.abnormal_hops == 0
    if router.is_disabled(source):
        expected = (False, (source,), "source disabled")
    elif router.is_disabled(destination):
        expected = (False, (source,), "destination disabled")
    elif blocked:
        reason = "blocked by a fault region (base e-cube has no detour)"
        expected = (False, tuple(path[: blocked[0]]), reason)
    else:
        expected = (True, tuple(path), "")
    assert (result.delivered, result.path, result.reason) == expected
    assert router.route_counts(source, destination) == (
        result.delivered, result.hops, 0, result.reason
    )


@settings(max_examples=40, deadline=None)
@given(fault_sets, coords)
def test_scheme1_is_monotone_in_the_fault_set(faults, extra):
    base = apply_labelling_scheme_1(faults_to_mask(sorted(faults), 12, 12))
    grown = apply_labelling_scheme_1(
        faults_to_mask(sorted(faults | {extra}), 12, 12)
    )
    # Adding a fault can only extend the unsafe set.
    assert not (base.labels & ~grown.labels).any()


@settings(max_examples=30, deadline=None)
@given(fault_sets, coords)
def test_constructions_are_monotone_in_the_fault_set(faults, extra):
    smaller = build_minimum_polygons(sorted(faults), topology=MESH)
    larger = build_minimum_polygons(sorted(faults | {extra}), topology=MESH)
    assert smaller.grid.disabled_set() <= larger.grid.disabled_set()

    fb_smaller = build_faulty_blocks(sorted(faults), topology=MESH)
    fb_larger = build_faulty_blocks(sorted(faults | {extra}), topology=MESH)
    assert fb_smaller.grid.disabled_set() <= fb_larger.grid.disabled_set()
