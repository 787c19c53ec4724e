"""Tests for the incremental MeshSession (repro.api.session)."""

import pytest

from repro.api import MeshSession, get_construction
from repro.core.components import find_components
from repro.core.mfp import build_minimum_polygons_via_labelling
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D, Torus2D

MODELS = ("fb", "fp", "mfp", "cmfp", "dmfp")


def _assert_same_result(incremental, oneshot, context=""):
    assert incremental.disabled_set() == oneshot.disabled_set(), context
    assert incremental.num_regions == oneshot.num_regions, context
    assert incremental.rounds == oneshot.rounds, context
    assert incremental.mean_region_size == pytest.approx(
        oneshot.mean_region_size
    ), context
    incremental_regions = sorted(frozenset(r.nodes) for r in incremental.regions)
    oneshot_regions = sorted(frozenset(r.nodes) for r in oneshot.regions)
    assert incremental_regions == oneshot_regions, context


class TestState:
    def test_empty_session(self):
        session = MeshSession(width=10)
        assert session.num_faults == 0
        assert session.components() == []
        result = session.build("mfp")
        assert result.num_regions == 0

    def test_add_faults_returns_new_positions(self):
        session = MeshSession(width=10)
        added = session.add_faults([(1, 1), (2, 2), (1, 1)])
        assert added == [(1, 1), (2, 2)]
        # Re-adding is a no-op and does not bump the version.
        version = session.version
        assert session.add_faults([(2, 2)]) == []
        assert session.version == version

    def test_validates_positions(self):
        session = MeshSession(width=5)
        with pytest.raises(Exception):
            session.add_faults([(9, 9)])

    def test_from_scenario(self):
        scenario = generate_scenario(num_faults=12, width=10, seed=3)
        session = MeshSession.from_scenario(scenario)
        assert session.fault_set() == scenario.fault_set()
        assert isinstance(session.topology, Mesh2D)

    def test_torus_session(self):
        session = MeshSession(width=8, torus=True)
        assert isinstance(session.topology, Torus2D)

    def test_clear(self):
        session = MeshSession(width=10, faults=[(1, 1), (5, 5)])
        session.build("mfp")
        session.clear()
        assert session.num_faults == 0
        assert session.components() == []
        assert session.build("mfp").num_regions == 0

    def test_describe(self):
        session = MeshSession(width=10, faults=[(1, 1), (5, 5)])
        text = session.describe()
        assert "10x10" in text and "2 faults" in text


class TestComponentTracking:
    def test_matches_find_components_after_batches(self):
        scenario = generate_scenario(
            num_faults=80, width=25, model="clustered", seed=9
        )
        session = MeshSession(topology=scenario.topology())
        faults = list(scenario.faults)
        for start in range(0, len(faults), 13):
            session.add_faults(faults[start : start + 13])
            reference = find_components(session.faults)
            tracked = session.components()
            assert [c.nodes for c in tracked] == [c.nodes for c in reference]
            assert [c.index for c in tracked] == [c.index for c in reference]

    def test_merge_of_multiple_components(self):
        # Two separate components joined by one bridging fault.
        session = MeshSession(width=10, faults=[(1, 1), (4, 4)])
        assert len(session.components()) == 2
        session.add_faults([(3, 3)])  # 8-adjacent to both (via (2,2)? no: to (4,4))
        # (3,3) touches (4,4) diagonally; (1,1) stays separate.
        assert len(session.components()) == 2
        session.add_faults([(2, 2)])  # bridges (1,1) and (3,3)
        assert len(session.components()) == 1


class TestIncrementalEqualsOneShot:
    @pytest.mark.parametrize("distribution", ["random", "clustered"])
    @pytest.mark.parametrize("num_batches", [2, 5])
    def test_batched_adds_match_union_build(self, distribution, num_batches):
        """Property: K add_faults batches == one-shot build on the union."""
        scenario = generate_scenario(
            num_faults=60, width=20, model=distribution, seed=21
        )
        faults = list(scenario.faults)
        # Interleaved batches exercise merges across existing components.
        batches = [faults[i::num_batches] for i in range(num_batches)]
        session = MeshSession(topology=scenario.topology())
        for batch in batches:
            session.add_faults(batch)
            for key in MODELS:
                incremental = session.build(key)
                oneshot = get_construction(key).build(
                    session.faults, scenario.topology()
                )
                _assert_same_result(
                    incremental, oneshot, context=f"{key}/{session.num_faults}"
                )

    def test_single_fault_steps(self):
        """Fault-by-fault insertion, the paper's exact sweep shape."""
        scenario = generate_scenario(
            num_faults=15, width=12, model="clustered", seed=2
        )
        session = MeshSession(topology=scenario.topology())
        for fault in scenario.faults:
            session.add_fault(fault)
            for key in ("mfp", "dmfp"):
                incremental = session.build(key)
                oneshot = get_construction(key).build(
                    session.faults, scenario.topology()
                )
                _assert_same_result(incremental, oneshot, context=str(fault))

    def test_mfp_options_respected_incrementally(self):
        # The diagonal pair forms one component whose labelling emulation
        # needs at least one round (singletons would legitimately need 0).
        session = MeshSession(width=15, faults=[(2, 2), (3, 3), (10, 10)])
        fast = session.build("mfp", compute_rounds=False)
        assert fast.rounds == 0
        full = session.build("mfp", compute_rounds=True)
        assert full.rounds > 0
        assert fast.disabled_set() == full.disabled_set()
        via = session.build("mfp", via_labelling=True)
        assert via.disabled_set() == full.disabled_set()

    def test_via_labelling_rounds_match_oneshot_even_without_compute_rounds(self):
        """Solution A always reports its emulation rounds, as the one-shot
        builder does -- compute_rounds only gates the hull path's emulation."""
        scenario = generate_scenario(
            num_faults=25, width=15, model="clustered", seed=3
        )
        session = MeshSession.from_scenario(scenario)
        incremental = session.build("mfp", via_labelling=True, compute_rounds=False)
        oneshot = get_construction("mfp").build(
            scenario, via_labelling=True, compute_rounds=False
        )
        assert incremental.rounds == oneshot.rounds > 0
        _assert_same_result(incremental, oneshot)

    def test_cached_labelling_polygons_follow_shifted_component_indices(self):
        session = MeshSession(
            width=12, faults=[(6, 6), (7, 7), (6, 8), (9, 2), (10, 3), (9, 4)]
        )
        session.build("mfp", via_labelling=True)
        # The new fault's component sorts first, so every cached polygon's
        # component index shifts by one.
        session.add_faults([(0, 0)])
        result = session.build("mfp", via_labelling=True)
        oneshot = build_minimum_polygons_via_labelling(
            session.faults, topology=session.topology
        )
        assert [p.component for p in result.raw.component_polygons] == [
            p.component for p in oneshot.component_polygons
        ]


class TestCaching:
    def test_result_cache_hit_without_mutation(self):
        session = MeshSession(width=15, faults=[(2, 2), (3, 3)])
        first = session.build("mfp")
        second = session.build("mfp")
        assert second is first
        assert session.cache_info["result_hits"] == 1

    def test_result_cache_invalidated_by_add(self):
        session = MeshSession(width=15, faults=[(2, 2)])
        first = session.build("mfp")
        session.add_faults([(10, 10)])
        second = session.build("mfp")
        assert second is not first

    def test_distinct_options_cached_separately(self):
        session = MeshSession(width=15, faults=[(2, 2)])
        fast = session.build("mfp", compute_rounds=False)
        full = session.build("mfp")
        assert fast is not full
        assert session.build("mfp", compute_rounds=False) is fast

    def test_untouched_components_hit_cache(self):
        """Dirty-component invalidation: far-away faults reuse cached hulls."""
        session = MeshSession(width=30, faults=[(2, 2), (2, 3), (3, 3)])
        session.build("mfp", compute_rounds=False)
        baseline_misses = session.cache_info["component_misses"]
        session.add_faults([(20, 20)])  # new isolated component
        session.build("mfp", compute_rounds=False)
        assert session.cache_info["component_hits"] >= 1  # (2,2) cluster reused
        # Only the new component's hull was computed.
        assert session.cache_info["component_misses"] == baseline_misses + 1

    def test_touched_component_recomputed(self):
        session = MeshSession(width=30, faults=[(2, 2), (2, 3)])
        session.build("mfp", compute_rounds=False)
        misses = session.cache_info["component_misses"]
        session.add_faults([(3, 4)])  # extends the existing component
        session.build("mfp", compute_rounds=False)
        assert session.cache_info["component_misses"] == misses + 1

    def test_stale_cache_entries_pruned_after_merge(self):
        session = MeshSession(width=20, faults=[(1, 1), (4, 4)])
        session.build("mfp", compute_rounds=False)
        session.add_faults([(2, 2), (3, 3)])  # merges everything
        session.build("mfp", compute_rounds=False)
        assert len(session._hull_cache) == len(session.components())

    def test_build_all_defaults_to_registry_keys(self):
        session = MeshSession(width=12, faults=[(2, 2), (6, 6)])
        results = session.build_all()
        for key in MODELS:
            assert key in results
            assert results[key].key == key

    def test_replaced_spec_bypasses_stale_incremental_builder(self):
        """register_construction(replace=True) must disconnect the previous
        spec's incremental builder, so the session runs the new builder
        (regression)."""
        from repro.api import ConstructionSpec, register_construction
        from repro.api.registry import _INCREMENTAL, _REGISTRY
        from repro.core.mfp import build_minimum_polygons

        calls = []

        def custom_builder(faults, topology, options):
            calls.append(len(faults))
            return build_minimum_polygons(faults, topology=topology)

        original_spec = _REGISTRY["mfp"]
        original_incremental = _INCREMENTAL.get("mfp")
        try:
            register_construction(
                ConstructionSpec(
                    key="mfp",
                    label="MFP",
                    description="test replacement",
                    builder=custom_builder,
                    aliases=original_spec.aliases,
                ),
                replace=True,
            )
            session = MeshSession(width=12, faults=[(2, 2), (6, 6)])
            session.build("mfp")
            assert calls, "replacement builder was bypassed"
        finally:
            _REGISTRY["mfp"] = original_spec
            if original_incremental is not None:
                _INCREMENTAL["mfp"] = original_incremental
        # The restored built-in spec still uses its incremental path.
        session = MeshSession(width=12, faults=[(2, 2)])
        session.build("mfp")
        assert session.cache_info["component_misses"] >= 1


class TestBatchAtomicity:
    def test_invalid_batch_leaves_session_untouched(self):
        """A rejected node must not leave half the batch inserted with
        stale caches (regression: validation now precedes mutation)."""
        session = MeshSession(width=10, faults=[(1, 1)])
        before = session.build("mfp")
        with pytest.raises(ValueError):
            session.add_faults([(2, 2), (99, 99)])
        assert session.fault_set() == frozenset({(1, 1)})
        assert [c.nodes for c in session.components()] == [frozenset({(1, 1)})]
        assert session.build("mfp") is before  # cache still valid
