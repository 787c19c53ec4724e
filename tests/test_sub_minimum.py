"""Unit tests for the sub-minimum faulty polygon model (FP, Wu 2001)."""


from repro.core.faulty_block import build_faulty_blocks
from repro.core.sub_minimum import (
    build_sub_minimum_for_scenario,
    build_sub_minimum_polygons,
)
from repro.faults.scenario import generate_scenario
from repro.types import FaultRegionModel


class TestBuildSubMinimumPolygons:
    def test_no_faults(self):
        result = build_sub_minimum_polygons([], width=10)
        assert result.regions == []
        assert result.rounds == 0

    def test_model_tag(self):
        result = build_sub_minimum_polygons([(1, 1)], width=8)
        assert result.model is FaultRegionModel.SUB_MINIMUM_FAULTY_POLYGON

    def test_diagonal_pair_shrinks_back_to_the_faults(self):
        result = build_sub_minimum_polygons([(2, 2), (3, 3)], width=8)
        assert result.grid.disabled_set() == {(2, 2), (3, 3)}
        assert result.num_disabled_nonfaulty == 0

    def test_polygons_are_orthogonal_convex(self):
        scenario = generate_scenario(num_faults=100, width=30, model="clustered", seed=2)
        result = build_sub_minimum_for_scenario(scenario)
        assert result.all_orthogonal_convex()

    def test_polygons_cover_all_faults(self):
        scenario = generate_scenario(num_faults=60, width=25, seed=3)
        result = build_sub_minimum_for_scenario(scenario)
        covered = set().union(*(r.nodes for r in result.regions))
        assert set(scenario.faults) <= covered

    def test_fp_never_disables_more_than_fb(self):
        for seed in range(5):
            scenario = generate_scenario(num_faults=70, width=20, model="clustered", seed=seed)
            fb = build_faulty_blocks(scenario.faults, topology=scenario.topology())
            fp = build_sub_minimum_for_scenario(scenario)
            assert fp.num_disabled_nonfaulty <= fb.num_disabled_nonfaulty
            assert fp.grid.disabled_set() <= fb.grid.disabled_set()

    def test_fp_rounds_exceed_fb_rounds(self):
        # FP pays the FB (scheme 1) rounds plus the scheme 2 rounds.
        scenario = generate_scenario(num_faults=80, width=25, model="clustered", seed=9)
        fb = build_faulty_blocks(scenario.faults, topology=scenario.topology())
        fp = build_sub_minimum_for_scenario(scenario)
        assert fp.rounds_scheme1 == fb.rounds
        assert fp.rounds >= fb.rounds

    def test_unsafe_label_is_kept_even_for_reenabled_nodes(self):
        # A non-faulty node that scheme 2 re-enables is still unsafe.
        result = build_sub_minimum_polygons([(2, 2), (3, 3)], width=8)
        assert (2, 3) in result.grid.unsafe_set()
        assert (2, 3) not in result.grid.disabled_set()

    def test_figure4_block_is_partitioned_but_not_minimally(self, figure4_faults):
        # The FP construction works per faulty block; the merged block of the
        # Figure 4 situation keeps at least one unnecessary non-faulty node
        # compared to the per-component minimum construction.
        from repro.core.mfp import build_minimum_polygons

        fp = build_sub_minimum_polygons(figure4_faults, width=10)
        mfp = build_minimum_polygons(figure4_faults, width=10)
        assert mfp.num_disabled_nonfaulty <= fp.num_disabled_nonfaulty
        assert mfp.num_disabled_nonfaulty == 0
