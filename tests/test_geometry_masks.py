"""Differential tests: the bitmask kernel against the set-based oracles.

Every primitive the kernel reimplements (component labelling, convexity
test, violation detection, hull fill, ring membership, perimeter, region
extraction) is asserted bit-identical to its set-based implementation on
Hypothesis-generated fault sets, and the full constructions (MFP/CMFP/DMFP,
incremental sessions, routing) are compared end to end with the set-based
reference builds of :mod:`repro.core.reference`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import MeshSession
from repro.core import reference
from repro.core.components import find_components, find_components_bfs
from repro.core.labelling import faults_to_mask
from repro.core.mfp import (
    build_minimum_polygons,
    component_polygon_via_labelling,
    emulate_rounds,
)
from repro.core.regions import extract_regions, extract_regions_and_index, regions_from_masks
from repro.distributed.dmfp import build_minimum_polygons_distributed
from repro.geometry import masks
from repro.geometry.boundary import region_perimeter, ring_members
from repro.geometry.orthogonal import (
    is_orthogonal_convex,
    is_orthogonal_convex_sets,
    orthogonal_convex_hull,
    orthogonal_convex_hull_sets,
    orthogonal_convexity_violations,
    orthogonal_convexity_violations_sets,
)
from repro.mesh.topology import Mesh2D, Torus2D
from repro.routing.registry import get_router
from repro.routing.traffic import TrafficContext, get_traffic

coords = st.tuples(st.integers(0, 14), st.integers(0, 14))
fault_sets = st.sets(coords, min_size=0, max_size=40)
nonempty_fault_sets = st.sets(coords, min_size=1, max_size=40)


class TestPrimitiveEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(fault_sets)
    def test_components_match_bfs_oracle(self, faults):
        kernel = find_components(sorted(faults))
        oracle = find_components_bfs(sorted(faults))
        assert [c.nodes for c in kernel] == [c.nodes for c in oracle]
        assert [c.index for c in kernel] == [c.index for c in oracle]

    @settings(max_examples=80, deadline=None)
    @given(fault_sets)
    def test_components_match_bfs_oracle_without_diagonals(self, faults):
        kernel = find_components(sorted(faults), diagonal=False)
        oracle = find_components_bfs(sorted(faults), diagonal=False)
        assert [c.nodes for c in kernel] == [c.nodes for c in oracle]

    @settings(max_examples=100, deadline=None)
    @given(fault_sets)
    def test_convexity_matches_sets_oracle(self, region):
        assert is_orthogonal_convex(region) == is_orthogonal_convex_sets(region)

    @settings(max_examples=100, deadline=None)
    @given(fault_sets)
    def test_violations_match_sets_oracle(self, region):
        assert orthogonal_convexity_violations(
            region
        ) == orthogonal_convexity_violations_sets(region)

    @settings(max_examples=100, deadline=None)
    @given(fault_sets)
    def test_hull_matches_sets_oracle(self, region):
        assert orthogonal_convex_hull(region) == orthogonal_convex_hull_sets(region)

    @settings(max_examples=60, deadline=None)
    @given(nonempty_fault_sets)
    def test_ring_mask_matches_ring_members(self, region):
        mask, offset = masks.coords_to_local_mask(region, pad=1)
        ring = masks.mask_to_frozenset(masks.ring_mask(mask), offset)
        assert ring == frozenset(ring_members(region))

    @settings(max_examples=60, deadline=None)
    @given(nonempty_fault_sets)
    def test_perimeter_mask_matches_region_perimeter(self, region):
        mask, _ = masks.coords_to_local_mask(region)
        expected = sum(
            1
            for x, y in region
            for n in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
            if n not in region
        )
        assert masks.perimeter_mask(mask) == expected
        assert region_perimeter(region) == expected

    @settings(max_examples=60, deadline=None)
    @given(fault_sets, fault_sets)
    def test_regions_from_masks_matches_extract_regions(self, disabled, extra_faults):
        disabled = set(disabled) | set(extra_faults)
        faults = set(extra_faults) & disabled
        disabled_mask = faults_to_mask(sorted(disabled), 15, 15)
        fault_mask = faults_to_mask(sorted(faults), 15, 15)
        kernel = regions_from_masks(disabled_mask, fault_mask)
        oracle = extract_regions(disabled, faults)
        assert [r.nodes for r in kernel] == [r.nodes for r in oracle]
        assert [r.faulty_nodes for r in kernel] == [r.faulty_nodes for r in oracle]

    @settings(max_examples=60, deadline=None)
    @given(fault_sets)
    def test_region_index_grid_is_consistent(self, disabled):
        disabled_mask = faults_to_mask(sorted(disabled), 15, 15)
        regions, index = extract_regions_and_index(
            disabled_mask, np.zeros((15, 15), dtype=bool)
        )
        assert index.shape == (15, 15)
        for region in regions:
            for node in region.nodes:
                assert index[node] == region.index
        assert (index >= 0).sum() == sum(r.size for r in regions)

    @settings(max_examples=60, deadline=None)
    @given(fault_sets)
    def test_emulate_rounds_matches_per_component_emulation(self, faults):
        components = find_components(sorted(faults))
        expected = max(
            (component_polygon_via_labelling(c).rounds for c in components),
            default=0,
        )
        assert emulate_rounds(components) == expected

    @settings(max_examples=60, deadline=None)
    @given(fault_sets)
    def test_nonconvex_labels_matches_per_region_check(self, disabled):
        disabled_mask = faults_to_mask(sorted(disabled), 15, 15)
        labels, count = masks.label_mask(disabled_mask, connectivity=4)
        flagged = set(masks.nonconvex_labels(labels, count).tolist())
        for index, (xs, ys) in enumerate(masks.grouped_nonzero(labels, count)):
            region = set(zip(xs.tolist(), ys.tolist()))
            assert (index + 1 in flagged) == (not is_orthogonal_convex_sets(region))


class TestConstructionEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(fault_sets, st.booleans())
    def test_mfp_build_is_identical_with_and_without_kernel(self, faults, torus):
        topology = Torus2D(15, 15) if torus else Mesh2D(15, 15)
        kernel = build_minimum_polygons(sorted(faults), topology=topology)
        oracle = reference.build_mfp(sorted(faults), topology)
        assert (kernel.grid.disabled == oracle.grid.disabled).all()
        assert (kernel.grid.unsafe == oracle.grid.unsafe).all()
        assert [r.nodes for r in kernel.regions] == [r.nodes for r in oracle.regions]
        assert kernel.rounds == oracle.rounds
        assert [p.polygon for p in kernel.component_polygons] == oracle.polygons

    @settings(max_examples=15, deadline=None)
    @given(fault_sets, st.booleans())
    def test_dmfp_build_is_identical_with_and_without_kernel(self, faults, torus):
        topology = Torus2D(15, 15) if torus else Mesh2D(15, 15)
        kernel = build_minimum_polygons_distributed(sorted(faults), topology=topology)
        oracle = reference.build_dmfp(sorted(faults), topology)
        assert (kernel.grid.disabled == oracle.grid.disabled).all()
        assert (kernel.grid.unsafe == oracle.grid.unsafe).all()
        assert [r.nodes for r in kernel.regions] == [r.nodes for r in oracle.regions]
        assert kernel.rounds == oracle.rounds

    @settings(max_examples=10, deadline=None)
    @given(st.lists(coords, min_size=0, max_size=30), st.integers(1, 5))
    def test_incremental_session_matches_one_shot_on_mask_caches(self, faults, batches):
        session = MeshSession(width=15)
        unique = list(dict.fromkeys(faults))
        step = max(1, len(unique) // batches)
        for start in range(0, len(unique), step):
            session.add_faults(unique[start : start + step])
            incremental = session.build("mfp")
            one_shot = build_minimum_polygons(session.faults, topology=session.topology)
            assert (incremental.grid.disabled == one_shot.grid.disabled).all()
            assert [r.nodes for r in incremental.regions] == [
                r.nodes for r in one_shot.regions
            ]
            assert incremental.rounds == one_shot.rounds
            for region in incremental.regions:
                for node in region.nodes:
                    assert incremental.region_index[node] == region.index

    @settings(max_examples=10, deadline=None)
    @given(fault_sets)
    def test_router_fast_path_matches_set_based_router(self, faults):
        topology = Mesh2D(15, 15)
        kernel = build_minimum_polygons(
            sorted(faults), topology=topology, compute_rounds=False
        )
        oracle = reference.build_mfp(sorted(faults), topology, compute_rounds=False)
        assert kernel.region_index is not None
        spec = get_router("extended-ecube")
        fast = spec.build(kernel)
        slow = spec.build(oracle)
        assert slow.region_of((0, 0)) in (-1, 0)  # exercises the rebuild path
        uniform = get_traffic("uniform")
        fast_batch = uniform.generate(TrafficContext.from_router(fast), 120, seed=9)
        slow_batch = uniform.generate(TrafficContext.from_router(slow), 120, seed=9)
        fast_paths = [fast.route(s, d).path for s, d in fast_batch.pairs()]
        slow_paths = [slow.route(s, d).path for s, d in slow_batch.pairs()]
        assert fast_paths == slow_paths
        assert fast.disabled == slow.disabled


class TestKernelUtilities:
    def test_label_mask_rejects_bad_connectivity(self):
        with pytest.raises(ValueError, match="connectivity"):
            masks.label_mask(np.zeros((3, 3), dtype=bool), connectivity=6)

    def test_label_mask_empty(self):
        labels, count = masks.label_mask(np.zeros((4, 4), dtype=bool))
        assert count == 0
        assert not labels.any()

    def test_try_local_mask_refuses_sparse_bounding_boxes(self):
        assert masks.try_local_mask([(0, 0), (100_000, 100_000)]) is None

    def test_sparse_inputs_take_the_set_based_primitives(self):
        # A 5001x5001 box (25M cells) exceeds MAX_LOCAL_AREA, so every
        # primitive falls back to its set implementation.
        region = [(0, 0), (2, 0), (5000, 5000)]
        assert masks.try_local_mask(region) is None
        assert region_perimeter(region) == 12
        assert orthogonal_convexity_violations(region) == {(1, 0)}
        assert not is_orthogonal_convex(region)
        assert orthogonal_convex_hull(region) == frozenset(region) | {(1, 0)}
        components = find_components(region)
        assert len(components) == 3
        assert components == find_components_bfs(region)

    def test_label_order_is_lexicographic_min_node(self):
        mask = np.zeros((6, 6), dtype=bool)
        # Two components; the one containing (0, 5) has the smaller min node.
        mask[0, 5] = True
        mask[5, 0] = True
        labels, count = masks.label_mask(mask)
        assert count == 2
        assert labels[0, 5] == 1
        assert labels[5, 0] == 2

    def test_propagation_fallback_matches_scipy_path(self, monkeypatch):
        from repro import _array_ops

        rng = np.random.default_rng(0)
        mask = rng.random((20, 20)) < 0.35
        with_scipy = masks.label_mask(mask, connectivity=8)
        monkeypatch.setattr(_array_ops, "_ndimage", None)
        without_scipy = masks.label_mask(mask, connectivity=8)
        assert np.array_equal(with_scipy[0], without_scipy[0])
        assert with_scipy[1] == without_scipy[1]
        with_scipy4 = masks.label_mask(mask, connectivity=4)
        monkeypatch.undo()
        assert np.array_equal(
            with_scipy4[0], masks.label_mask(mask, connectivity=4)[0]
        )


class TestFaultsToMask:
    def test_vectorized_mask_matches_loop(self):
        faults = [(0, 0), (3, 4), (9, 9), (3, 4)]
        mask = faults_to_mask(faults, 10, 10)
        expected = np.zeros((10, 10), dtype=bool)
        for x, y in faults:
            expected[x, y] = True
        assert np.array_equal(mask, expected)

    def test_empty_faults(self):
        assert not faults_to_mask([], 5, 5).any()

    def test_out_of_grid_fault_raises_with_coordinate(self):
        with pytest.raises(ValueError, match=r"fault \(5, 1\) outside 5x5 grid"):
            faults_to_mask([(1, 1), (5, 1)], 5, 5)

    def test_negative_fault_raises(self):
        with pytest.raises(ValueError, match="outside"):
            faults_to_mask([(-1, 0)], 5, 5)
