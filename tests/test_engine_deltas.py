"""Differential tests of incremental engine deltas and fault repair.

``apply_fault_delta`` / ``transplant_engine_state`` re-derive only the
rows, columns and regions a fault update touched; the full rebuild is the
oracle, obtained by replacing the session's transplant seam
(``repro.api.routing.transplant_engine_state``) with a no-op.  The
Hypothesis suites here assert the two are bit-identical -- at the
jump-table level on random mask edits, and end-to-end through
``MeshSession`` routing stats for random fault/repair sequences on mesh
and torus, both engines, and both the NumPy and the loop-nest array
primitives.  The repair path (``remove_faults``) is itself
differential-tested against one-shot component discovery and
fresh-session builds.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api.routing as api_routing
from repro import _array_loops, _array_ops
from repro.api import MeshSession
from repro.core.components import find_components
from repro.faults.scenario import FaultScenario, generate_scenario
from repro.mesh.topology import Mesh2D
from repro.routing.engine import JumpTables, PackedRings, transplant_engine_state
from repro.routing.extended_ecube import ExtendedECubeRouter

STATS_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)

coords10 = st.tuples(st.integers(0, 9), st.integers(0, 9))


def fingerprint(stats):
    return tuple(getattr(stats, field) for field in STATS_FIELDS)


def full_rebuilds():
    """Make every router rebuild its engine state: nothing is transplanted."""
    return mock.patch.object(
        api_routing, "transplant_engine_state", lambda old_router, new_router: False
    )


class TestJumpTableDelta:
    @given(
        st.integers(3, 16),
        st.integers(3, 16),
        st.sets(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=24),
        st.sets(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_matches_full_rebuild(self, width, height, disabled, flips):
        before = np.zeros((width, height), dtype=bool)
        for x, y in disabled:
            before[x % width, y % height] = True
        after = before.copy()
        for x, y in flips:
            after[x % width, y % height] ^= True
        changed_x, changed_y = np.nonzero(before != after)
        before_tables = JumpTables.from_disabled(before)
        patched = before_tables.apply_fault_delta(after, changed_x, changed_y)
        full = JumpTables.from_disabled(after)
        assert np.array_equal(patched.stack, full.stack)
        for field in ("east", "west", "north", "south"):
            assert np.array_equal(getattr(patched, field), getattr(full, field))
            # One copy of the tables: each direction is a view of the stack.
            assert np.shares_memory(getattr(patched, field), patched.stack)
            assert np.shares_memory(getattr(full, field), full.stack)
        # The patch copies the stack once; the source tables stay as they were.
        assert not np.shares_memory(patched.stack, before_tables.stack)
        assert np.array_equal(before_tables.stack, JumpTables.from_disabled(before).stack)

    def test_empty_delta_is_identity(self):
        disabled = np.zeros((5, 5), dtype=bool)
        disabled[2, 2] = True
        tables = JumpTables.from_disabled(disabled)
        patched = tables.apply_fault_delta(
            disabled, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert np.array_equal(patched.stack, tables.stack)
        for field in ("east", "west", "north", "south"):
            assert np.array_equal(getattr(patched, field), getattr(tables, field))
            assert np.shares_memory(getattr(patched, field), patched.stack)


class TestTransplant:
    def test_unchanged_mask_reuses_tables(self):
        # (3, 2) is the concave fill of the {(2, 2), (4, 2), (3, 3)}
        # component's MFP polygon: faulting it changes the fault set but
        # not the disabled mask, so the transplant reuses the tables
        # object as-is.
        session = MeshSession(width=12, faults=[(2, 2), (4, 2), (3, 3)])
        router_a = session.router("extended-ecube", "mfp")
        tables = router_a.jump_tables()
        assert (3, 2) in session.build("mfp").disabled_set()
        session.add_faults([(3, 2)])
        router_b = session.router("extended-ecube", "mfp")
        assert router_b is not router_a
        assert router_b.jump_tables() is tables

    def test_transplant_counts_in_cache_info(self):
        session = MeshSession(width=16, faults=[(2, 2), (2, 3), (10, 10)])
        session.route("mfp", messages=50, seed=0)
        before = dict(session.cache_info)
        session.add_faults([(12, 12)])
        session.route("mfp", messages=50, seed=0)
        after = session.cache_info
        assert after["delta_applies"] == before["delta_applies"] + 1
        assert after["jump_rebuilds"] == before["jump_rebuilds"]

    def test_disabled_toggle_rebuilds_fully(self):
        session = MeshSession(width=16, faults=[(2, 2), (2, 3), (10, 10)])
        with full_rebuilds():
            session.route("mfp", messages=50, seed=0)
            session.add_faults([(12, 12)])
            session.route("mfp", messages=50, seed=0)
        assert session.cache_info["delta_applies"] == 0
        assert session.cache_info["jump_rebuilds"] == 2

    def test_mismatched_shapes_not_transplanted(self):
        small = MeshSession(width=8, faults=[(1, 1)]).router("extended-ecube", "mfp")
        large = MeshSession(width=9, faults=[(1, 1)]).router("extended-ecube", "mfp")
        small.jump_tables()
        assert transplant_engine_state(small, large) is False


def _churn_stats(scenario, events, *, route, deltas):
    """Route after every churn event with *route* (``MeshSession.route`` or
    the ``scalar_route`` oracle); return the stats fingerprints."""
    with contextlib.nullcontext() if deltas else full_rebuilds():
        session = MeshSession.from_scenario(scenario)
        fingerprints = []
        for index, (kind, nodes) in enumerate(events):
            if kind == "add":
                session.add_faults(nodes)
            else:
                session.remove_faults(nodes)
            stats = route(
                session,
                "mfp",
                traffic="uniform",
                messages=80,
                seed=100 + index,
                router="extended-ecube",
            )
            fingerprints.append(fingerprint(stats))
        return fingerprints, dict(session.cache_info)


churn_events = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.lists(coords10, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=4,
)


class TestSessionDeltaDifferential:
    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    @given(seed=st.integers(0, 10_000), events=churn_events)
    @settings(max_examples=15, deadline=None)
    def test_delta_equals_rebuild(self, torus, engine, seed, events, scalar_route):
        scenario = generate_scenario(
            num_faults=8, width=10, model="clustered", seed=seed, torus=torus
        )
        route = scalar_route if engine == "scalar" else MeshSession.route
        with_deltas, info_deltas = _churn_stats(scenario, events, route=route, deltas=True)
        without, info_rebuild = _churn_stats(scenario, events, route=route, deltas=False)
        assert with_deltas == without
        assert info_rebuild["delta_applies"] == 0

    @pytest.mark.parametrize("backend", ["numpy", "loops"])
    def test_delta_equals_rebuild_across_backends(self, backend, monkeypatch):
        ops = {"numpy": _array_ops.NUMPY_OPS, "loops": _array_loops.OPS}[backend]
        monkeypatch.setattr(_array_ops, "active_ops", lambda: ops)
        scenario = generate_scenario(num_faults=10, width=10, model="clustered", seed=3)
        events = [
            ("add", [(2, 2), (2, 3)]),
            ("remove", [(2, 2)]),
            ("add", [(7, 7)]),
        ]
        with_deltas, _ = _churn_stats(scenario, events, route=MeshSession.route, deltas=True)
        without, _ = _churn_stats(scenario, events, route=MeshSession.route, deltas=False)
        assert with_deltas == without


class TestRemoveFaults:
    @given(
        seed=st.integers(0, 10_000),
        events=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.lists(coords10, min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_matches_one_shot_discovery(self, seed, events):
        session = MeshSession(width=10)
        current = set()
        for kind, nodes in events:
            if kind == "add":
                session.add_faults(nodes)
                current |= set(nodes)
            else:
                session.remove_faults(nodes)
                current -= set(nodes)
            assert set(session.faults) == current
            ours = sorted(component.nodes for component in session.components())
            reference = sorted(
                component.nodes for component in find_components(sorted(current))
            )
            assert ours == reference

    def test_split_component_rebuilds_matching_fresh(self):
        # A bridge node whose removal splits one component into two.
        session = MeshSession(width=12, faults=[(2, 2), (3, 3), (4, 4)])
        assert len(session.components()) == 1
        session.remove_faults([(3, 3)])
        assert len(session.components()) == 2
        fresh = MeshSession(width=12, faults=[(2, 2), (4, 4)])
        assert session.build("mfp").disabled_set() == fresh.build("mfp").disabled_set()
        assert session.build("dmfp").disabled_set() == fresh.build("dmfp").disabled_set()

    def test_remove_unknown_returns_empty(self):
        session = MeshSession(width=8, faults=[(1, 1)])
        version = session.version
        assert session.remove_faults([(5, 5)]) == []
        assert session.version == version

    def test_remove_validates_bounds(self):
        session = MeshSession(width=8)
        with pytest.raises(ValueError):
            session.remove_faults([(99, 0)])


class TestLinkFaultWiring:
    def test_add_link_faults_maps_to_lower_endpoint(self):
        session = MeshSession(width=8)
        added = session.add_link_faults([((2, 2), (2, 3)), ((5, 5), (6, 5))])
        assert added == [(2, 2), (5, 5)]
        assert session.fault_set() == {(2, 2), (5, 5)}

    def test_existing_fault_absorbs_link(self):
        session = MeshSession(width=8, faults=[(4, 4)])
        assert session.add_link_faults([((4, 4), (4, 5))]) == []

    def test_prefer_upper_endpoint(self):
        session = MeshSession(width=8)
        assert session.add_link_faults([((2, 2), (2, 3))], prefer_lower=False) == [
            (2, 3)
        ]

    def test_non_adjacent_link_rejected(self):
        session = MeshSession(width=8)
        with pytest.raises(ValueError):
            session.add_link_faults([((0, 0), (3, 0))])

    def test_scenario_link_faults_applied(self):
        base = generate_scenario(num_faults=4, width=10, seed=2)
        scenario = FaultScenario(
            width=base.width,
            height=base.height,
            model=base.model,
            seed=base.seed,
            faults=base.faults,
            link_faults=(((0, 0), (0, 1)), ((6, 6), (7, 6))),
        )
        session = MeshSession.from_scenario(scenario)
        manual = MeshSession(width=10, faults=base.faults)
        manual.add_link_faults(scenario.link_faults)
        assert session.fault_set() == manual.fault_set()
        assert "link faults" in scenario.describe()


class TestPackedRingsAppend:
    """The incremental append path must be bit-identical to a rebuild."""

    ARRAYS = (
        "ring_x",
        "ring_y",
        "valid",
        "off_mesh",
        "geo_bits",
        "entry_keys",
        "entry_positions",
    )

    @staticmethod
    def _router(width=16, count=10, seed=7):
        rng = np.random.default_rng(seed)
        regions, used = [], set()
        while len(regions) < count:
            x = int(rng.integers(1, width - 2))
            y = int(rng.integers(1, width - 1))
            cells = {(x, y), (x + 1, y)}
            if cells & used:
                continue
            used |= cells
            regions.append(sorted(cells))
        return ExtendedECubeRouter(Mesh2D(width, width), regions)

    def _encounter(self, router, batches, force_rebuild=False):
        rings = PackedRings(router)
        for batch in batches:
            if force_rebuild:
                rings._dirty = True
            rings.ensure(router, np.asarray(batch))
        return rings

    def _assert_identical(self, left, right):
        for name in self.ARRAYS:
            assert np.array_equal(getattr(left, name), getattr(right, name)), name

    def test_progressive_append_matches_full_rebuild(self):
        router = self._router()
        batches = [[index] for index in range(10)]
        appended = self._encounter(router, batches)
        rebuilt = self._encounter(router, batches, force_rebuild=True)
        self._assert_identical(appended, rebuilt)

    def test_multi_region_batches_match(self):
        router = self._router()
        batches = [[0, 3], [1], [2, 4, 5], [6], [7, 8, 9], [3, 0]]
        appended = self._encounter(router, batches)
        rebuilt = self._encounter(router, batches, force_rebuild=True)
        self._assert_identical(appended, rebuilt)

    def test_append_after_fault_delta_rebuild(self):
        router = self._router()
        rings = self._encounter(router, [[index] for index in range(6)])
        rings._dirty = True  # what apply_fault_delta leaves behind
        rings.ensure(router, np.asarray([6]))
        rings.ensure(router, np.asarray([7]))  # back on the append path
        oracle = self._encounter(
            router, [[index] for index in range(8)], force_rebuild=True
        )
        self._assert_identical(rings, oracle)
