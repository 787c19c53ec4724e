"""Differential tests of incremental engine deltas and fault repair.

``apply_fault_delta`` / ``transplant_engine_state`` re-derive only the
rows, columns and regions a fault update touched (the regions named by
``survivor_map``, which must equal node-set identity matching); the full
rebuild is the oracle, obtained by replacing the session's transplant seam
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
from repro.core.regions import extract_regions_and_index
from repro.faults.scenario import FaultScenario, generate_scenario
from repro.mesh.topology import Mesh2D
from repro.routing.engine import (
    JumpTables,
    PackedRings,
    survivor_map,
    transplant_engine_state,
)
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


#: The per-region slots and the seven flat arrays of a ``PackedRings``.
PACKED_FIELDS = (
    "start",
    "length",
    "packed",
    "ring_x",
    "ring_y",
    "valid",
    "off_mesh",
    "geo_bits",
    "entry_keys",
    "entry_positions",
)


def assert_packed_equal(left, right):
    for name in PACKED_FIELDS:
        ours, theirs = getattr(left, name), getattr(right, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name
    assert [region for region, _ in left._order] == [region for region, _ in right._order]


def repacked(router, order):
    """A fresh ``PackedRings`` of *router*, packed over *order*, region by region."""
    rings = PackedRings(router)
    for region in order:
        rings.ensure(router, np.asarray([region]))
    return rings


def node_set_matching(old_router, new_router):
    """The survivor map by node-set identity (the oracle of ``survivor_map``)."""
    count = len(new_router._regions)
    index_of = {new_router.region_nodes(index): index for index in range(count)}
    return [
        index_of.get(old_router.region_nodes(index), -1)
        for index in range(len(old_router._regions))
    ]


class TestSurvivorMap:
    @pytest.mark.parametrize("torus", [False, True])
    @given(
        faults=st.sets(coords10, max_size=30),
        edits=st.lists(
            st.tuples(st.booleans(), st.lists(coords10, min_size=1, max_size=4)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_map_equals_node_set_matching(self, torus, faults, edits):
        session = MeshSession(width=10, torus=torus, faults=sorted(faults))
        before = session.router()
        for add, nodes in edits:
            if add:
                session.add_faults(nodes)
            else:
                session.remove_faults(nodes)
            after = session.router()
            survivors = survivor_map(before, after)
            assert survivors.tolist() == node_set_matching(before, after)
            kept = survivors[survivors >= 0]
            assert (np.diff(kept) > 0).all()
            before = after

    @given(
        disabled=st.sets(coords10, max_size=40),
        flips=st.sets(coords10, min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_edits(self, disabled, flips):
        mesh = Mesh2D(10, 10)
        before_mask = np.zeros((10, 10), dtype=bool)
        for node in disabled:
            before_mask[node] = True
        after_mask = before_mask.copy()
        for node in flips:
            after_mask[node] ^= True
        routers = []
        for mask in (before_mask, after_mask):
            regions, index = extract_regions_and_index(mask, mask)
            routers.append(ExtendedECubeRouter(mesh, regions, region_index=index))
        survivors = survivor_map(*routers)
        assert survivors.tolist() == node_set_matching(*routers)
        kept = survivors[survivors >= 0]
        assert (np.diff(kept) > 0).all()

    def test_explicit_regions_may_reorder(self):
        # Explicit region lists need not be in C-order: the map then
        # decreases, and the packed delta re-sorts its entry keys.
        mesh = Mesh2D(12, 12)
        first, second, third = [(2, 2), (3, 2)], [(8, 8)], [(5, 1), (5, 2)]
        before = ExtendedECubeRouter(mesh, [first, second, third])
        after = ExtendedECubeRouter(mesh, [second, first, [(10, 10)]])
        survivors = survivor_map(before, after)
        assert survivors.tolist() == [1, 0, -1] == node_set_matching(before, after)
        rings = repacked(before, [0, 1, 2])
        patched = rings.apply_fault_delta(after, survivors)
        assert_packed_equal(patched, repacked(after, [1, 0]))

    def test_off_grid_nodes_never_survive(self):
        mesh = Mesh2D(8, 8)
        before = ExtendedECubeRouter(mesh, [[(0, 3), (-1, 3)], [(5, 5)]])
        after = ExtendedECubeRouter(mesh, [[(0, 3), (-1, 3)], [(5, 5)]])
        assert survivor_map(before, after).tolist() == [-1, 1]


class TestSessionPackedDelta:
    """The packed rings a fault update leaves equal a fresh pack."""

    @pytest.mark.parametrize("torus", [False, True])
    @given(seed=st.integers(0, 10_000), events=churn_events)
    @settings(max_examples=20, deadline=None)
    def test_patched_rings_equal_fresh_pack(self, torus, seed, events):
        scenario = generate_scenario(
            num_faults=10, width=10, model="clustered", seed=seed, torus=torus
        )
        session = MeshSession.from_scenario(scenario)
        session.route("mfp", messages=80, seed=seed)
        for index, (kind, nodes) in enumerate(events):
            before = session.router()
            if kind == "add":
                session.add_faults(nodes)
            else:
                session.remove_faults(nodes)
            router = session.router()
            construction = session.build("mfp")
            assert [router.region_nodes(i) for i in range(len(router._regions))] == [
                region.nodes for region in construction.regions
            ]
            if before._packed_rings is not None and router is not before:
                patched = router._packed_rings
                order = [region for region, _ in patched._order]
                assert_packed_equal(patched, repacked(router, order))
            session.route("mfp", messages=80, seed=seed + index + 1)

    def test_rebuild_after_two_node_update_builds_no_region(self, region_builds):
        scenario = generate_scenario(400, width=100, model="clustered", seed=31)
        session = MeshSession.from_scenario(scenario)
        session.route("mfp", messages=400, seed=0)
        before = session.router()
        faulty = session.fault_set()
        x, y = next(
            (x, y) for x in range(99) for y in range(100)
            if not {(x, y), (x + 1, y)} & faulty
        )
        session.add_faults([(x, y), (x + 1, y)])
        session.route("mfp", messages=400, seed=1)
        after = session.router()
        assert after is not before
        assert session.cache_info["delta_applies"] == 1
        assert region_builds == []


class TestPackedRingsAppend:
    """The incremental append path must be bit-identical to a rebuild."""

    @staticmethod
    def _regions(width=16, count=10, seed=7):
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
        return regions

    def _router(self, width=16):
        return ExtendedECubeRouter(Mesh2D(width, width), self._regions(width))

    def _encounter(self, router, batches, force_rebuild=False):
        rings = PackedRings(router)
        for batch in batches:
            rings.ensure(router, np.asarray(batch))
            if force_rebuild:
                rings._rebuild(router)
        return rings


    def test_progressive_append_matches_full_rebuild(self):
        router = self._router()
        batches = [[index] for index in range(10)]
        appended = self._encounter(router, batches)
        rebuilt = self._encounter(router, batches, force_rebuild=True)
        assert_packed_equal(appended, rebuilt)

    def test_multi_region_batches_match(self):
        router = self._router()
        batches = [[0, 3], [1], [2, 4, 5], [6], [7, 8, 9], [3, 0]]
        appended = self._encounter(router, batches)
        rebuilt = self._encounter(router, batches, force_rebuild=True)
        assert_packed_equal(appended, rebuilt)

    def test_append_after_fault_delta_rebuild(self):
        regions = self._regions()
        mesh = Mesh2D(16, 16)
        before = ExtendedECubeRouter(mesh, regions)
        rings = self._encounter(before, [[index] for index in range(6)])
        # Region 2 is repaired away: every later region moves down one index.
        after = ExtendedECubeRouter(mesh, regions[:2] + regions[3:])
        survivors = survivor_map(before, after)
        assert survivors.tolist() == [0, 1, -1, *range(2, 9)]
        patched = rings.apply_fault_delta(after, survivors)
        patched.ensure(after, np.asarray([6]))
        patched.ensure(after, np.asarray([7]))  # appends after the patch
        oracle = self._encounter(
            after, [[0], [1], [2], [3], [4], [6], [7]], force_rebuild=True
        )
        assert_packed_equal(patched, oracle)
