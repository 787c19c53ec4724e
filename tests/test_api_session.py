"""Tests for MeshSession (repro.api.session): fault updates, builds that
equal one-shot builds, result caching, and components asked of
find_components once per version."""

import gc
import random
import weakref

import pytest

import repro.api.session as session_module
from repro.api import MeshSession, get_construction
from repro.core.components import clear_shape_memos, find_components
from repro.core.reference import build_minimum_polygons_via_labelling
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

    def test_repair_keeps_insertion_order_and_readding_appends(self):
        session = MeshSession(width=9, faults=[(5, 5), (1, 1), (2, 2)])
        assert session.remove_faults([(1, 1), (1, 1), (0, 0)]) == [(1, 1)]
        assert session.faults == ((5, 5), (2, 2))
        session.add_faults([(1, 1)])
        assert session.faults == ((5, 5), (2, 2), (1, 1))
        assert session.version == 3

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


class TestComponentsOnDemand:
    def test_mutations_do_no_component_work(self, monkeypatch):
        calls = []

        def counting_find_components(faults):
            calls.append(len(faults))
            return find_components(faults)

        monkeypatch.setattr(session_module, "find_components", counting_find_components)
        rng = random.Random(7)
        session = MeshSession(width=20)
        for step in range(50):
            batch = [(rng.randrange(20), rng.randrange(20)) for _ in range(6)]
            if step % 3 == 2:
                session.remove_faults(batch[:2] + list(session.faults[:3]))
            else:
                session.add_faults(batch)
        assert calls == []
        components = session.components()
        session.fingerprint()
        session.describe()
        assert len(calls) == 1
        assert session.add_faults([session.faults[0]]) == []
        assert session.components() is components
        assert len(calls) == 1


class TestFingerprint:
    def test_split_is_pinned(self):
        session = MeshSession(width=12, faults=[(2, 2), (3, 3), (4, 4)])
        session.remove_faults([(3, 3)])
        assert (session.version, len(session.components())) == (2, 2)
        assert session.fingerprint() == (
            "675768b8be8559bdbffc6407a629d31c2dcdd292949dff105e8c962edcae5abf"
        )

    def test_torus_is_pinned(self):
        session = MeshSession(width=8, torus=True, faults=[(0, 0), (7, 7), (3, 4)])
        assert (session.version, len(session.components())) == (1, 3)
        assert session.fingerprint() == (
            "222e5f1447b83208a4eb2e3265856ed1c1f05bfc7bb0db2b255d99465674fb5f"
        )

    def test_empty_is_pinned(self):
        assert MeshSession(width=10).fingerprint() == (
            "040872b7a83dc248dafdf16e1d2c2a0f75e657c0fd8ad6142e121ef421da2223"
        )


class TestFromState:
    @pytest.mark.parametrize(
        "change, field",
        [
            ({"width": True}, "width"),
            ({"height": 0}, "height"),
            ({"version": -1}, "version"),
            ({"version": 2.0}, "version"),
            ({"torus": "yes"}, "torus"),
            ({"faults": [[1, False]]}, "faults"),
            ({"faults": {"1": 1}}, "faults"),
        ],
    )
    def test_refuses_a_bad_field_by_name(self, change, field):
        state = {"width": 6, "height": 6, "torus": False, "faults": [[1, 1]], "version": 1}
        with pytest.raises(ValueError, match=f"'{field}'"):
            MeshSession.from_state({**state, **change})


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

    def test_via_labelling_rounds_match_oneshot_even_without_compute_rounds(self):
        """Solution A, the named reference, always reports its emulation
        rounds; the session's memoised rounds equal them, and
        compute_rounds=False only skips the hull path's emulation."""
        scenario = generate_scenario(
            num_faults=25, width=15, model="clustered", seed=3
        )
        session = MeshSession.from_scenario(scenario)
        solution_a = build_minimum_polygons_via_labelling(
            scenario.faults, scenario.topology()
        )
        assert session.build("mfp").rounds == solution_a.rounds > 0
        fast = session.build("mfp", compute_rounds=False)
        assert fast.rounds == 0
        assert fast.disabled_set() == solution_a.grid.disabled_set()

    def test_cached_labelling_polygons_follow_shifted_component_indices(self):
        session = MeshSession(
            width=12, faults=[(6, 6), (7, 7), (6, 8), (9, 2), (10, 3), (9, 4)]
        )
        session.build("mfp")
        # The new fault's component sorts first, so every cached polygon's
        # component index shifts by one.
        session.add_faults([(0, 0)])
        result = session.build("mfp")
        solution_a = build_minimum_polygons_via_labelling(session.faults, session.topology)
        assert [p.component for p in result.raw.component_polygons] == [
            p.component for p in solution_a.component_polygons
        ]
        assert [p.polygon for p in result.raw.component_polygons] == [
            p.polygon for p in solution_a.component_polygons
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
        """A far-away new component leaves the others' shapes in the shape
        memos: the next build looks them up as hits."""
        clear_shape_memos()
        session = MeshSession(width=30, faults=[(2, 2), (2, 3), (3, 3)])
        session.build("mfp", compute_rounds=False)
        assert session.cache_info["component_misses"] == 1  # the L's hull
        session.add_faults([(20, 20), (21, 21)])  # new diagonal pair
        session.build("mfp", compute_rounds=False)
        assert session.cache_info["component_hits"] == 1  # the L reused
        # Only the new component's hull was computed.
        assert session.cache_info["component_misses"] == 2

    def test_touched_component_recomputed(self):
        clear_shape_memos()
        session = MeshSession(width=30, faults=[(2, 2), (3, 3)])
        session.build("mfp", compute_rounds=False)
        misses = session.cache_info["component_misses"]
        session.add_faults([(3, 4)])  # extends the existing component
        session.build("mfp", compute_rounds=False)
        assert session.cache_info["component_misses"] == misses + 1
        assert session.cache_info["component_hits"] == 0

    def test_build_all_defaults_to_registry_keys(self):
        session = MeshSession(width=12, faults=[(2, 2), (6, 6)])
        results = session.build_all()
        for key in MODELS:
            assert key in results
            assert results[key].key == key

    def test_replaced_spec_builder_runs_in_session(self):
        """A session build runs the builder of a spec registered with
        register_construction(replace=True) (regression)."""
        from repro.api import ConstructionSpec, register_construction
        from repro.api.registry import _REGISTRY
        from repro.core.mfp import build_minimum_polygons

        calls = []

        def custom_builder(faults, topology, options):
            calls.append(len(faults))
            return build_minimum_polygons(faults, topology=topology)

        original_spec = _REGISTRY["mfp"]
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


class TestLifetime:
    @pytest.mark.parametrize("served", ["build", "route", "simulate"])
    def test_del_frees_the_session_without_the_cyclic_collector(self, served):
        """The facades hold weak back-references, so reference counting
        alone frees a session and everything it built."""
        session = MeshSession(width=10, faults=[(3, 3), (4, 4), (6, 2)])
        if served == "build":
            session.build("mfp")
        elif served == "route":
            session.route("mfp", messages=20, seed=1)
        else:
            session.simulate("mfp", load=0.02, cycles=16, seed=1)
        refs = [weakref.ref(session)]
        if served != "build":
            refs.append(weakref.ref(session.routing))
        if served == "simulate":
            refs.append(weakref.ref(session.routing.netsim))
        gc.collect()
        gc.disable()
        try:
            del session
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_a_facade_outliving_its_session_says_so(self):
        routing = MeshSession(width=6).routing
        with pytest.raises(ReferenceError, match="MeshSession"):
            routing.route("mfp", messages=5)
