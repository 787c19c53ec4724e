"""Unit tests for the minimum faulty polygon constructions (MFP / CMFP)."""

import pickle

import pytest

from repro.core.components import find_components, shape_key
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import (
    build_minimum_polygons,
    component_minimum_polygon,
    component_polygon_via_labelling,
    shape_hull,
)
from repro.core.reference import build_minimum_polygons_via_labelling
from repro.core.regions import LazyList
from repro.distributed.dmfp import shape_outcome
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D
from repro.geometry.orthogonal import is_orthogonal_convex, orthogonal_convex_hull
from repro.types import FaultRegionModel


class TestComponentPolygon:
    def test_convex_component_needs_no_fill(self, figure2_region):
        component = find_components(figure2_region)[0]
        entry = component_minimum_polygon(component)
        assert entry.polygon == frozenset(figure2_region)
        assert entry.added_nodes == frozenset()

    def test_u_shape_fill(self, u_shape):
        component = find_components(u_shape)[0]
        entry = component_minimum_polygon(component)
        assert entry.added_nodes == {(1, 1), (1, 2)}

    def test_o_shape_fills_the_hole(self, o_shape):
        component = find_components(o_shape)[0]
        entry = component_minimum_polygon(component)
        assert entry.added_nodes == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_labelling_emulation_matches_hull(self, u_shape, o_shape, staircase):
        for shape in (u_shape, o_shape, staircase):
            component = find_components(shape)[0]
            direct = component_minimum_polygon(component)
            emulated = component_polygon_via_labelling(component)
            assert direct.polygon == emulated.polygon

    def test_labelling_emulation_counts_rounds(self, o_shape):
        component = find_components(o_shape)[0]
        emulated = component_polygon_via_labelling(component)
        assert emulated.rounds >= 1
        assert emulated.rounds == emulated.rounds_scheme1 + emulated.rounds_scheme2

    def test_scheme1_grows_component_to_its_bounding_box(self, staircase):
        # The virtual faulty block of a connected component is its bounding
        # box; the emulated scheme 1 must reach the full box.
        import numpy as np

        from repro.core.labelling import apply_labelling_scheme_1

        component = find_components(staircase)[0]
        box = component.bounding_box
        local = np.zeros((box.width, box.height), dtype=bool)
        for x, y in component.nodes:
            local[x - box.min_x, y - box.min_y] = True
        grown = apply_labelling_scheme_1(local)
        assert grown.labels.all()


class TestBuildMinimumPolygons:
    def test_no_faults(self):
        result = build_minimum_polygons([], width=10)
        assert result.regions == []
        assert result.rounds == 0

    def test_model_tag(self):
        result = build_minimum_polygons([(1, 1)], width=8)
        assert result.model is FaultRegionModel.MINIMUM_FAULTY_POLYGON

    def test_regions_are_orthogonal_convex(self):
        scenario = generate_scenario(num_faults=120, width=30, model="clustered", seed=4)
        result = build_minimum_polygons(scenario.faults, topology=scenario.topology())
        assert result.all_orthogonal_convex()

    def test_regions_cover_all_faults(self):
        scenario = generate_scenario(num_faults=80, width=25, seed=6)
        result = build_minimum_polygons(scenario.faults, topology=scenario.topology())
        covered = set().union(*(r.nodes for r in result.regions))
        assert set(scenario.faults) <= covered

    def test_mfp_never_disables_more_than_fp_or_fb(self):
        for seed in range(5):
            scenario = generate_scenario(
                num_faults=90, width=25, model="clustered", seed=seed
            )
            topology = scenario.topology()
            fb = build_faulty_blocks(scenario.faults, topology=topology)
            fp = build_sub_minimum_polygons(scenario.faults, topology=topology)
            mfp = build_minimum_polygons(
                scenario.faults, topology=topology, compute_rounds=False
            )
            assert (
                mfp.num_disabled_nonfaulty
                <= fp.num_disabled_nonfaulty
                <= fb.num_disabled_nonfaulty
            )

    def test_both_centralized_solutions_agree(self):
        for seed in range(4):
            scenario = generate_scenario(
                num_faults=70, width=20, model="clustered", seed=seed
            )
            topology = scenario.topology()
            hull_based = build_minimum_polygons(
                scenario.faults, topology=topology, compute_rounds=False
            )
            labelling_based = build_minimum_polygons_via_labelling(
                scenario.faults, topology=topology
            )
            assert hull_based.grid.disabled_set() == labelling_based.grid.disabled_set()

    def test_per_component_minimality(self):
        # Every per-component polygon is exactly the minimum orthogonal
        # convex hull of the component: no smaller orthogonal convex region
        # can cover its faults.
        scenario = generate_scenario(num_faults=60, width=20, model="clustered", seed=8)
        result = build_minimum_polygons(
            scenario.faults, topology=scenario.topology(), compute_rounds=False
        )
        for entry in result.component_polygons:
            hull = orthogonal_convex_hull(entry.component.nodes)
            assert entry.polygon == hull
            assert is_orthogonal_convex(entry.polygon)

    def test_components_and_polygons_are_lazy_lists(self, component_builds, u_shape):
        scenario = generate_scenario(num_faults=40, width=16, model="clustered", seed=5)
        result = build_minimum_polygons(scenario.faults, topology=scenario.topology())
        assert isinstance(result.components, LazyList)
        assert isinstance(result.component_polygons, LazyList)
        assert len(result.components) == len(result.component_polygons) > 1
        assert component_builds == []
        for lazy in (result.components, result.component_polygons):
            clone = pickle.loads(pickle.dumps(lazy))  # pickled before the first look
            assert clone == list(lazy) == pickle.loads(pickle.dumps(lazy))
        assert list(result.components) == find_components(scenario.faults)
        assert all(
            entry.component is component
            for entry, component in zip(result.component_polygons, result.components)
        )
        key = shape_key(u_shape)
        with pytest.raises(ValueError):
            shape_hull(key)[0, 0] = 5
        with pytest.raises(ValueError):
            shape_outcome(key).notified[0, 0] = 5

    def test_figure4_two_minimum_polygons(self, figure4_faults):
        result = build_minimum_polygons(figure4_faults, width=10, compute_rounds=False)
        assert len(result.components) == 2
        assert result.num_disabled_nonfaulty == 0
        assert len(result.regions) == 2

    def test_cmfp_rounds_do_not_exceed_whole_network_labelling(self):
        # The per-component emulation is bounded by the component extent, so
        # CMFP never needs more rounds than FP's whole-network labelling.
        for seed in range(3):
            scenario = generate_scenario(
                num_faults=90, width=30, model="clustered", seed=seed
            )
            topology = scenario.topology()
            fp = build_sub_minimum_polygons(scenario.faults, topology=topology)
            mfp = build_minimum_polygons(scenario.faults, topology=topology)
            assert mfp.rounds <= fp.rounds

    def test_compute_rounds_flag(self):
        faults = [(0, 0), (1, 1)]
        result = build_minimum_polygons(faults, width=8, compute_rounds=False)
        assert result.rounds == 0
        result = build_minimum_polygons(faults, width=8, compute_rounds=True)
        assert result.rounds == 2
        (component,) = find_components(faults)
        assert result.rounds == component_polygon_via_labelling(component).rounds

    def test_overlapping_component_hulls_pile_correctly(self):
        # Component A's concave section passes through component B's nodes:
        # the superseding rule must keep B's faults black and still disable
        # the non-faulty section nodes.
        faults = [
            # component A: a C-shape whose concave row sections span x=3..4
            (2, 2), (2, 3), (2, 4), (5, 2), (5, 4), (3, 2), (4, 2), (3, 4), (4, 4),
            # component B: a single fault sitting inside A's concave region
            # (not 8-adjacent to any A node)
            (7, 7),
        ]
        result = build_minimum_polygons(faults, width=12, compute_rounds=False)
        disabled = result.grid.disabled_set()
        assert (3, 3) in disabled and (4, 3) in disabled
        assert result.grid.is_faulty((7, 7))


class TestPiledRegionConvexity:
    """Piled polygons that merge must still form orthogonal convex regions.

    Regression for a bug found by the hypothesis suite: a singleton
    component 8-adjacent to another component's hull produced a merged
    region that was not orthogonal convex (violating what the extended
    e-cube router requires).  The assembles now fill such merged regions
    to their hulls (fixpoint).
    """

    FAULTS = sorted({(4, 4), (4, 0), (3, 1), (3, 3), (5, 0), (2, 2), (5, 2)})

    def test_centralized_regions_convex_after_merge(self):
        mfp = build_minimum_polygons(
            self.FAULTS, topology=Mesh2D(12, 12), compute_rounds=False
        )
        assert all(r.is_orthogonal_convex for r in mfp.regions)

    def test_distributed_matches_centralized_after_merge(self):
        from repro.distributed.dmfp import build_minimum_polygons_distributed

        mfp = build_minimum_polygons(
            self.FAULTS, topology=Mesh2D(12, 12), compute_rounds=False
        )
        dmfp = build_minimum_polygons_distributed(
            self.FAULTS, topology=Mesh2D(12, 12)
        )
        assert all(r.is_orthogonal_convex for r in dmfp.regions)
        assert dmfp.grid.disabled_set() == mfp.grid.disabled_set()

    def test_incremental_session_matches_after_merge(self):
        from repro.api import MeshSession, get_construction

        session = MeshSession(topology=Mesh2D(12, 12))
        for fault in self.FAULTS:
            session.add_fault(fault)
        for key in ("mfp", "dmfp"):
            incremental = session.build(key)
            oneshot = get_construction(key).build(self.FAULTS, Mesh2D(12, 12))
            assert incremental.disabled_set() == oneshot.disabled_set()
            assert all(r.is_orthogonal_convex for r in incremental.regions)
