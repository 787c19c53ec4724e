"""Integration tests that encode the paper's running examples end to end."""


from repro.api import collect_scenario_metrics
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.distributed.dmfp import build_minimum_polygons_distributed
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D
from repro.routing.extended_ecube import ExtendedECubeRouter

#: Every construction but the distributed one (its rounds are Figure 11's).
WITHOUT_DMFP = ("fb", "fp", "mfp", "cmfp")


class TestSection21Shapes:
    """Section 2.1: which shapes are orthogonal convex polygons."""

    def test_tlplus_shapes_are_convex_ush_shapes_are_not(self):
        from repro.geometry.orthogonal import is_orthogonal_convex

        t_shape = {(0, 1), (1, 1), (2, 1), (1, 0)}
        l_shape = {(2, 4), (3, 4), (4, 3)}
        plus_shape = {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}
        u_shape = {(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)}
        h_shape = {(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2), (1, 1)}
        assert is_orthogonal_convex(t_shape)
        assert is_orthogonal_convex(l_shape)
        assert is_orthogonal_convex(plus_shape)
        assert not is_orthogonal_convex(u_shape)
        assert not is_orthogonal_convex(h_shape)


class TestSection22RoutingExample:
    """Section 2.2 / Figure 2: routing from (1,3) to (6,4) around the polygon."""

    def test_route_follows_the_narrative(self, figure2_region):
        router = ExtendedECubeRouter(Mesh2D(10, 10), [figure2_region])
        result = router.route((1, 3), (6, 4))
        assert result.delivered
        path = list(result.path)
        # WE-bound row travel eastwards first.
        assert path[:2] == [(1, 3), (2, 3)]
        # The message becomes normal again at (5,2) and passes through (6,2).
        assert (5, 2) in path and (6, 2) in path
        assert path.index((5, 2)) < path.index((6, 2))
        assert path[-1] == (6, 4)

    def test_fault_free_route_matches_base_ecube(self):
        router = ExtendedECubeRouter(Mesh2D(10, 10), [])
        result = router.route((1, 3), (6, 4))
        assert result.is_minimal
        assert (6, 3) in result.path


class TestFigure3Pipeline:
    """Figure 3: FB -> FP -> MFP on a ten-fault pattern, strictly improving."""

    def test_monotone_improvement(self, figure3_faults):
        topology = Mesh2D(15, 15)
        fb = build_faulty_blocks(figure3_faults, topology=topology)
        fp = build_sub_minimum_polygons(figure3_faults, topology=topology)
        mfp = build_minimum_polygons(figure3_faults, topology=topology)
        assert (
            mfp.num_disabled_nonfaulty
            <= fp.num_disabled_nonfaulty
            <= fb.num_disabled_nonfaulty
        )
        assert fb.num_disabled_nonfaulty > 0
        assert fp.all_orthogonal_convex()
        assert mfp.all_orthogonal_convex()

    def test_every_model_covers_every_fault(self, figure3_faults):
        topology = Mesh2D(15, 15)
        for result in (
            build_faulty_blocks(figure3_faults, topology=topology),
            build_sub_minimum_polygons(figure3_faults, topology=topology),
            build_minimum_polygons(figure3_faults, topology=topology),
        ):
            disabled = result.grid.disabled_set()
            assert set(figure3_faults) <= disabled


class TestFigure4Situation:
    """Figure 4: per-component polygons beat the per-block polygon."""

    def test_fp_keeps_extra_nodes_mfp_does_not(self, figure4_faults):
        topology = Mesh2D(10, 10)
        fb = build_faulty_blocks(figure4_faults, topology=topology)
        fp = build_sub_minimum_polygons(figure4_faults, topology=topology)
        mfp = build_minimum_polygons(figure4_faults, topology=topology)

        # Scheme 1 merges the two components into one rectangular block.
        assert len(fb.regions) == 1
        assert fb.num_disabled_nonfaulty >= 4
        # The sub-minimum polygon still wastes at least one node, the
        # minimum construction wastes none (both components are convex).
        assert mfp.num_disabled_nonfaulty == 0
        assert fp.num_disabled_nonfaulty >= mfp.num_disabled_nonfaulty
        assert len(mfp.regions) == 2

    def test_distributed_solution_agrees(self, figure4_faults):
        topology = Mesh2D(10, 10)
        mfp = build_minimum_polygons(figure4_faults, topology=topology)
        dmfp = build_minimum_polygons_distributed(figure4_faults, topology=topology)
        assert dmfp.grid.disabled_set() == mfp.grid.disabled_set()


class TestSection4HeadlineClaims:
    """Section 4: the qualitative claims of the evaluation, at reduced scale."""

    def test_fp_and_mfp_savings(self):
        # "Under the sub-minimum faulty polygon model, 50% of non-faulty
        #  nodes contained in the faulty blocks can be enabled.  Under the
        #  minimum faulty polygon model, 90% ... can be enabled."
        savings_fp = []
        savings_mfp = []
        for seed in range(3):
            scenario = generate_scenario(
                num_faults=500, width=100, model="random", seed=seed
            )
            metrics = collect_scenario_metrics(scenario, WITHOUT_DMFP, include_rounds=False)
            savings_fp.append(metrics.saving_vs_fb("FP"))
            savings_mfp.append(metrics.saving_vs_fb("MFP"))
        assert sum(savings_fp) / len(savings_fp) >= 0.40
        assert sum(savings_mfp) / len(savings_mfp) >= 0.80
        assert sum(savings_mfp) > sum(savings_fp)

    def test_average_region_size_ordering(self):
        # "The average size of MFP is the least of the three."
        scenario = generate_scenario(num_faults=600, width=100, model="clustered", seed=5)
        metrics = collect_scenario_metrics(scenario, WITHOUT_DMFP, include_rounds=False)
        size = {label: m.mean_region_size for label, m in metrics.per_model.items()}
        assert size["MFP"] <= size["FP"] <= size["FB"]

    def test_clustered_blocks_grow_faster_than_minimum_polygons(self):
        # "the size of each faulty block becomes large ... However, the
        #  average size of minimum faulty polygons does not increase much."
        random_metrics = collect_scenario_metrics(
            generate_scenario(num_faults=700, width=100, model="random", seed=1),
            WITHOUT_DMFP, include_rounds=False,
        ).per_model
        clustered_metrics = collect_scenario_metrics(
            generate_scenario(num_faults=700, width=100, model="clustered", seed=1),
            WITHOUT_DMFP, include_rounds=False,
        ).per_model
        fb_growth = clustered_metrics["FB"].mean_region_size / random_metrics["FB"].mean_region_size
        mfp_growth = (
            clustered_metrics["MFP"].mean_region_size / random_metrics["MFP"].mean_region_size
        )
        assert fb_growth > mfp_growth

    def test_rounds_ordering(self):
        # "the number of rounds ... under FP is more than that of FB",
        # "the number of rounds needed under the CMFP is much less than FB".
        scenario = generate_scenario(num_faults=700, width=100, model="random", seed=2)
        rounds = {
            label: m.rounds for label, m in collect_scenario_metrics(scenario).per_model.items()
        }
        assert rounds["FP"] >= rounds["FB"]
        assert rounds["CMFP"] < rounds["FB"]
        assert rounds["DMFP"] >= rounds["CMFP"]
