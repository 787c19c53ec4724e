"""Integration tests for the distributed MFP construction (DMFP)."""


from repro.core import reference
from repro.core.components import clear_shape_memos, find_components, shape_key
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons, shape_hull, shape_rounds
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.distributed.dmfp import (
    build_distributed_for_scenario,
    build_minimum_polygons_distributed,
    construct_component,
    shape_outcome,
)
from repro.distributed.ring import construct_boundary_ring
from repro.faults.scenario import generate_scenario
from repro.geometry.orthogonal import orthogonal_convex_hull_sets
from repro.geometry.sections import Section, concave_sections
from repro.mesh.topology import Mesh2D
from repro.types import FaultRegionModel


class TestDistributedConstruction:
    def test_no_faults(self):
        result = build_minimum_polygons_distributed([], width=10)
        assert result.regions == []
        assert result.rounds == 0

    def test_model_tag(self):
        result = build_minimum_polygons_distributed([(1, 1)], width=8)
        assert result.model is FaultRegionModel.MINIMUM_FAULTY_POLYGON

    def test_matches_centralized_construction(self):
        for seed in range(6):
            scenario = generate_scenario(
                num_faults=90, width=25, model="clustered", seed=seed
            )
            topology = scenario.topology()
            centralized = build_minimum_polygons(scenario.faults, topology=topology)
            distributed = build_distributed_for_scenario(scenario)
            assert distributed.grid.disabled_set() == centralized.grid.disabled_set()

    def test_matches_centralized_on_random_distribution(self):
        for seed in range(4):
            scenario = generate_scenario(num_faults=60, width=20, seed=seed)
            topology = scenario.topology()
            centralized = build_minimum_polygons(scenario.faults, topology=topology)
            distributed = build_distributed_for_scenario(scenario)
            assert distributed.grid.disabled_set() == centralized.grid.disabled_set()

    def test_regions_are_orthogonal_convex(self):
        scenario = generate_scenario(num_faults=110, width=30, model="clustered", seed=3)
        result = build_distributed_for_scenario(scenario)
        assert result.all_orthogonal_convex()

    def test_rounds_exceed_centralized_but_track_component_size(self):
        # The boundary ring has to circle every component, so DMFP always
        # needs at least as many rounds as the per-component labelling
        # emulation; both are independent of the whole-network block size.
        for seed in range(3):
            scenario = generate_scenario(
                num_faults=80, width=25, model="clustered", seed=seed
            )
            topology = scenario.topology()
            centralized = build_minimum_polygons(scenario.faults, topology=topology)
            distributed = build_distributed_for_scenario(scenario)
            assert distributed.rounds >= centralized.rounds

    def test_rounds_smaller_than_fp_at_paper_scale(self):
        # The headline claim of Figure 11: at the paper's scale (100x100
        # mesh, 800 random faults) the distributed MFP construction needs
        # fewer rounds on average than the whole-network FP labelling,
        # because its rings only circle the small components while FP's
        # labelling spans the large merged faulty blocks.
        fp_rounds, dmfp_rounds = [], []
        for seed in range(3):
            scenario = generate_scenario(num_faults=800, width=100, seed=seed)
            topology = scenario.topology()
            fp_rounds.append(
                build_sub_minimum_polygons(scenario.faults, topology=topology).rounds
            )
            dmfp_rounds.append(build_distributed_for_scenario(scenario).rounds)
        assert sum(dmfp_rounds) / 3 < sum(fp_rounds) / 3

    def test_per_component_records(self, figure4_faults):
        result = build_minimum_polygons_distributed(figure4_faults, width=10)
        assert len(result.per_component) == 2
        for entry in result.per_component:
            assert entry.rounds >= 1 + entry.ring.rounds
            assert entry.polygon >= set(entry.component.nodes)

    def test_total_messages_accounting(self, figure4_faults):
        result = build_minimum_polygons_distributed(figure4_faults, width=10)
        assert result.total_messages >= sum(
            entry.ring.rounds for entry in result.per_component
        )

    def test_num_disabled_nonfaulty_never_exceeds_fb(self):
        scenario = generate_scenario(num_faults=100, width=25, model="clustered", seed=7)
        topology = scenario.topology()
        fb = build_faulty_blocks(scenario.faults, topology=topology)
        dmfp = build_distributed_for_scenario(scenario)
        assert dmfp.num_disabled_nonfaulty <= fb.num_disabled_nonfaulty

    def test_mean_region_size_zero_without_regions(self):
        result = build_minimum_polygons_distributed([], width=6)
        assert result.mean_region_size == 0.0


#: An upside-down U: its two concave row sections are (1..3, 0) and (1..3, 1).
CAP = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (4, 1), (4, 0)]


def _build_against_reference(faults, width):
    """The DMFP build of *faults*, checked against the set-based reference
    (the exact per-component construction, no shape memo)."""
    result = build_minimum_polygons_distributed(faults, width=width)
    expected = reference.build_dmfp(faults, Mesh2D(width, width))
    assert result.rounds == expected.rounds
    assert result.grid.disabled_set() == expected.grid.disabled_set()
    return result


class TestShapeMemo:
    def test_fault_on_a_concave_section_replans_exactly(self):
        # A lone fault of another component on the cap's lower section: the
        # notification has to detour around it, which the unblocked shape
        # outcome knows nothing about.
        faults = CAP + [(2, 0)]
        cap = next(c for c in find_components(faults) if len(c.nodes) == len(CAP))
        exact = construct_component(cap, set(faults))
        unblocked = shape_outcome(shape_key(cap.nodes))
        assert exact.rounds > unblocked.rounds
        assert (2, 0) not in exact.plan.disabled_nodes
        result = _build_against_reference(faults, width=8)
        assert result.rounds == exact.rounds
        assert result.grid.disabled_set() == exact.polygon | {(2, 0)}

    def test_translated_shapes_share_one_outcome(self):
        shift = (10, 7)
        moved = [(x + shift[0], y + shift[1]) for x, y in CAP]
        faults = CAP + moved
        shape_outcome.cache_clear()
        result = _build_against_reference(faults, width=20)
        assert (shape_outcome.misses, shape_outcome.hits) == (1, 1)
        here, there = (construct_component(c, set(faults)) for c in find_components(faults))
        assert result.rounds == here.rounds == there.rounds
        assert there.polygon == {(x + shift[0], y + shift[1]) for x, y in here.polygon}
        assert result.grid.disabled_set() == here.polygon | there.polygon

    def test_translated_shapes_share_one_hull_and_rounds(self):
        shift = (10, 7)
        moved = [(x + shift[0], y + shift[1]) for x, y in CAP]
        clear_shape_memos()
        result = build_minimum_polygons(CAP + moved, width=20)
        assert shape_hull.misses == 1
        here, there = result.component_polygons
        assert here.polygon > here.component.nodes  # the cap's sections
        assert there.polygon == {(x + shift[0], y + shift[1]) for x, y in here.polygon}
        assert shape_rounds.misses == 0  # rounds are looked up on first read
        assert result.rounds > 0
        assert (shape_rounds.hits, shape_rounds.misses) == (1, 1)


#: One component whose ring walk meets stale pairings: a boundary-array
#: entry from across a second gap in the same row or column.
STALE_PAIRING = [
    (2, 4), (2, 5), (3, 4), (3, 6), (4, 0), (4, 1), (4, 5), (4, 6), (5, 2),
    (5, 3), (5, 7), (5, 8), (6, 1), (6, 3), (6, 4), (6, 6), (6, 8), (7, 0),
    (7, 5), (7, 8), (8, 4), (8, 7), (8, 8),
]

#: One component with a concave section the ring walk detects no end node
#: for, column 2 rows 5-7: a member node next to it notifies instead.
UNDETECTED_END = [
    (0, 4), (0, 10), (1, 5), (1, 8), (1, 9), (2, 4), (2, 8), (2, 10), (3, 5),
    (3, 10), (3, 11), (4, 6), (4, 7), (4, 11), (5, 5), (5, 7), (5, 9), (5, 10),
    (6, 5), (6, 8),
]


class TestRingCornerCases:
    def test_ring_skips_stale_pairings(self):
        (component,) = find_components(STALE_PAIRING)
        ring = construct_boundary_ring(component)
        concave = set(concave_sections(component.nodes))
        assert len(ring.detected) == 17
        assert all(entry.section in concave for entry in ring.detected)
        exact = construct_component(component, set(STALE_PAIRING))
        assert exact.polygon == orthogonal_convex_hull_sets(component.nodes)

    def test_undetected_section_is_notified_from_a_member_node(self):
        (component,) = find_components(UNDETECTED_END)
        exact = construct_component(component, set(UNDETECTED_END))
        undetected = [n.section for n in exact.plan.notifications if not n.detected_by_ring]
        assert Section("column", 2, 5, 7) in undetected
        result = _build_against_reference(UNDETECTED_END, width=12)
        assert result.rounds == exact.rounds == 71
        assert result.grid.disabled_set() == exact.polygon
