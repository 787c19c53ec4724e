"""Unit tests for fault-region extraction (repro.core.regions)."""

import pickle

import numpy as np
import pytest

from repro.api import get_construction
from repro.core.regions import (
    FaultRegion,
    RegionList,
    extract_regions,
    region_statistics,
    regions_from_masks,
)
from repro.faults.scenario import generate_scenario


class TestFaultRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            FaultRegion(0, frozenset(), frozenset())

    def test_faulty_nodes_must_be_subset(self):
        with pytest.raises(ValueError):
            FaultRegion(0, frozenset({(0, 0)}), frozenset({(1, 1)}))

    def test_counts(self):
        region = FaultRegion(
            0, frozenset({(0, 0), (1, 0), (0, 1)}), frozenset({(0, 0)})
        )
        assert region.size == 3
        assert region.num_faulty == 1
        assert region.num_disabled_nonfaulty == 2

    def test_shape_predicates(self):
        square = FaultRegion(
            0,
            frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}),
            frozenset({(0, 0)}),
        )
        l_shape = FaultRegion(
            1, frozenset({(0, 0), (1, 0), (0, 1)}), frozenset({(0, 0)})
        )
        assert square.is_rectangle and square.is_orthogonal_convex
        assert not l_shape.is_rectangle
        assert l_shape.is_orthogonal_convex

    def test_iteration_and_membership(self):
        region = FaultRegion(0, frozenset({(2, 2), (2, 3)}), frozenset({(2, 2)}))
        assert (2, 3) in region
        assert list(region) == [(2, 2), (2, 3)]
        assert len(region) == 2


class TestExtractRegions:
    def test_no_disabled_nodes(self):
        assert extract_regions([], []) == []

    def test_single_region(self):
        regions = extract_regions([(0, 0), (0, 1), (1, 1)], [(0, 0)])
        assert len(regions) == 1
        assert regions[0].size == 3
        assert regions[0].faulty_nodes == frozenset({(0, 0)})

    def test_diagonal_groups_are_separate_regions(self):
        # Region extraction uses the physical 4-adjacency.
        regions = extract_regions([(0, 0), (1, 1)], [(0, 0), (1, 1)])
        assert len(regions) == 2

    def test_regions_partition_disabled_set(self):
        disabled = [(0, 0), (0, 1), (5, 5), (5, 6), (9, 0)]
        regions = extract_regions(disabled, [(0, 0)])
        assert sum(r.size for r in regions) == len(disabled)
        union = set()
        for region in regions:
            assert not (union & region.nodes)
            union |= region.nodes
        assert union == set(disabled)

    def test_deterministic_order(self):
        disabled = [(3, 3), (0, 0), (7, 7)]
        first = extract_regions(disabled, [])
        second = extract_regions(list(reversed(disabled)), [])
        assert [r.nodes for r in first] == [r.nodes for r in second]

    @pytest.mark.parametrize("key", ["fb", "fp", "mfp", "dmfp"])
    def test_construction_regions_build_once_on_first_access(self, key, region_builds):
        scenario = generate_scenario(40, width=16, model="clustered", seed=5)
        result = get_construction(key).build(scenario)
        assert isinstance(result.regions, RegionList)
        assert len(result.regions) == result.num_regions > 1 and result.regions
        assert region_builds == []
        first = list(result.regions)
        assert region_builds == list(range(len(first)))
        assert all(a is b for a, b in zip(result.regions, first))
        assert result.regions.index(first[-1]) == len(first) - 1
        assert len(region_builds) == len(first)
        assert first == extract_regions(result.grid.disabled_set(), scenario.faults)

    def test_region_list_compares_pickles_and_slices_like_a_list(self):
        scenario = generate_scenario(40, width=16, model="random", seed=8)
        result = get_construction("mfp").build(scenario)
        oracle = extract_regions(result.grid.disabled_set(), scenario.faults)
        clone = pickle.loads(pickle.dumps(result.regions))
        assert clone == oracle and oracle == clone
        assert result.regions == oracle and oracle == result.regions
        assert result.regions == clone and result.regions != oracle[:-1]
        assert result.regions != oracle[::-1] and oracle[::-1] != result.regions
        assert result.regions != [] and [] != result.regions
        assert result.regions != tuple(oracle)
        assert pickle.loads(pickle.dumps(result.regions)) == oracle
        assert repr(result.regions) == repr(list(result.regions))
        assert result.regions[-1] == oracle[-1]
        assert result.regions[1:3] == oracle[1:3]
        assert result.regions[::-2] == oracle[::-2]
        assert list(reversed(result.regions)) == oracle[::-1]
        with pytest.raises(TypeError):
            hash(result.regions)
        empty = get_construction("mfp").build(generate_scenario(0, width=8)).regions
        assert isinstance(empty, RegionList) and not empty
        assert empty == [] and [] == empty and empty == RegionList(
            np.zeros((8, 8), dtype=np.int32), 0, np.zeros((8, 8), dtype=bool)
        )

    def test_region_list_snapshots_the_fault_mask(self):
        scenario = generate_scenario(40, width=16, model="clustered", seed=5)
        result = get_construction("fp").build(scenario)
        expected = extract_regions(result.grid.disabled_set(), scenario.faults)
        result.grid.faulty[:] = False
        assert list(result.regions) == expected
        assert sum(r.num_faulty for r in result.regions) == scenario.num_faults

    def test_regions_from_masks(self):
        disabled = np.zeros((5, 5), dtype=bool)
        faulty = np.zeros((5, 5), dtype=bool)
        disabled[1, 1] = disabled[1, 2] = True
        faulty[1, 1] = True
        regions = regions_from_masks(disabled, faulty)
        assert len(regions) == 1
        assert regions[0].nodes == frozenset({(1, 1), (1, 2)})
        assert regions[0].faulty_nodes == frozenset({(1, 1)})


class TestRegionStatistics:
    def test_empty(self):
        stats = region_statistics([])
        assert stats["count"] == 0
        assert stats["mean_size"] == 0.0
        assert stats["convex_fraction"] == 1.0

    def test_aggregates(self):
        regions = [
            FaultRegion(0, frozenset({(0, 0), (0, 1)}), frozenset({(0, 0)})),
            FaultRegion(1, frozenset({(5, 5)}), frozenset({(5, 5)})),
        ]
        stats = region_statistics(regions)
        assert stats["count"] == 2
        assert stats["mean_size"] == 1.5
        assert stats["max_size"] == 2
        assert stats["total_disabled_nonfaulty"] == 1
        assert stats["total_faulty"] == 2
        assert stats["convex_fraction"] == 1.0
