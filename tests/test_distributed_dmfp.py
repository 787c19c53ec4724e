"""Integration tests for the distributed MFP construction (DMFP)."""


from repro.core.components import find_components
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.distributed.dmfp import (
    build_distributed_for_scenario,
    build_minimum_polygons_distributed,
    component_outcome,
    construct_component,
    shape_outcome,
)
from repro.faults.scenario import generate_scenario
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
            centralized = build_minimum_polygons(
                scenario.faults, topology=topology, compute_rounds=False
            )
            distributed = build_distributed_for_scenario(scenario)
            assert distributed.grid.disabled_set() == centralized.grid.disabled_set()

    def test_matches_centralized_on_random_distribution(self):
        for seed in range(4):
            scenario = generate_scenario(num_faults=60, width=20, seed=seed)
            topology = scenario.topology()
            centralized = build_minimum_polygons(
                scenario.faults, topology=topology, compute_rounds=False
            )
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


def _notified(outcome):
    return set(map(tuple, outcome.notified.tolist()))


class TestShapeMemo:
    def test_fault_on_a_concave_section_replans_exactly(self):
        # A lone fault of another component on the cap's lower section: the
        # notification has to detour around it, which the unblocked shape
        # outcome knows nothing about.
        faults = CAP + [(2, 0)]
        cap = next(c for c in find_components(faults) if len(c.nodes) == len(CAP))
        exact = construct_component(cap, set(faults))
        outcome = component_outcome(cap, set(faults))
        assert outcome.rounds == exact.rounds
        assert _notified(outcome) == exact.plan.disabled_nodes
        unblocked = shape_outcome(cap.nodes)
        assert exact.rounds > unblocked.rounds
        assert (2, 0) not in exact.plan.disabled_nodes
        result = build_minimum_polygons_distributed(faults, width=8)
        assert result.rounds == max(e.rounds for e in result.per_component)
        assert result.rounds == exact.rounds

    def test_translated_shapes_share_one_outcome(self):
        shift = (10, 7)
        moved = [(x + shift[0], y + shift[1]) for x, y in CAP]
        faults = CAP + moved
        shape_outcome.cache_clear()
        here, there = find_components(faults)
        first = component_outcome(here, set(faults))
        second = component_outcome(there, set(faults))
        assert shape_outcome.cache_info().misses == 1
        assert first.rounds == second.rounds
        assert _notified(second) == {
            (x + shift[0], y + shift[1]) for x, y in _notified(first)
        }
        for component, outcome in ((here, first), (there, second)):
            exact = construct_component(component, set(faults))
            assert outcome.rounds == exact.rounds
            assert _notified(outcome) == exact.plan.disabled_nodes
