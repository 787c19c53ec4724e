"""Differential tests: the NumPy hot primitives against their references.

Every primitive of :data:`repro._array_ops.NUMPY_OPS` (component
labelling, span fills, hull fixpoints, non-convexity detection, jump
tables, lane scans, netsim arbitration) is asserted bit-identical to the
loop-nest reference :data:`repro._array_loops.OPS` and to independent
set-based oracles on Hypothesis-generated inputs.  The reference is also
swapped in through the ``_array_ops.active_ops`` seam to check that whole
constructions, routed batches and contention runs come out identical, and
that the stats label says which primitive set ran.
"""

import dataclasses
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import _array_loops, _array_ops
from repro.api.session import MeshSession
from repro.core.components import find_components_bfs
from repro.core.labelling import faults_to_mask
from repro.faults.scenario import generate_scenario
from repro.geometry.orthogonal import (
    is_orthogonal_convex_sets,
    orthogonal_convex_hull_sets,
)

WIDTH = 15

coords = st.tuples(st.integers(0, WIDTH - 1), st.integers(0, WIDTH - 1))
fault_sets = st.sets(coords, min_size=0, max_size=40)

NUMPY_OPS = _array_ops.NUMPY_OPS
LOOPS_OPS = _array_loops.OPS

#: RoutingStats fields a route must reproduce under either primitive set.
ROUTE_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)


@contextmanager
def running(ops):
    """Run the library on *ops* by replacing the ``active_ops`` seam."""
    original = _array_ops.active_ops
    _array_ops.active_ops = lambda: ops
    try:
        yield
    finally:
        _array_ops.active_ops = original


def _mask(faults: set) -> np.ndarray:
    return faults_to_mask(sorted(faults), WIDTH, WIDTH)


def _route_fields(stats) -> tuple:
    return tuple(getattr(stats, field) for field in ROUTE_FIELDS)


# -- primitive equivalence: numpy vs the loops reference vs a set-based oracle --------


class TestPrimitiveDifferential:
    @settings(max_examples=60, deadline=None)
    @given(faults=fault_sets, connectivity=st.sampled_from([4, 8]))
    def test_label_components(self, faults, connectivity):
        mask = _mask(faults)
        labels, count = LOOPS_OPS.label_components(mask, connectivity)
        base_labels, base_count = NUMPY_OPS.label_components(mask, connectivity)
        assert count == base_count
        assert np.array_equal(labels, base_labels)
        components = find_components_bfs(sorted(faults), diagonal=connectivity == 8)
        assert count == len(components)
        for index, component in enumerate(components):
            for node in component.nodes:
                assert labels[node] == index + 1

    @settings(max_examples=60, deadline=None)
    @given(faults=fault_sets)
    def test_span_fill(self, faults):
        mask = _mask(faults)
        filled = LOOPS_OPS.span_fill(mask)
        assert np.array_equal(filled, NUMPY_OPS.span_fill(mask))
        expected = set()
        for x in range(WIDTH):
            ys = [y for (fx, y) in faults if fx == x]
            if ys:
                expected |= {(x, y) for y in range(min(ys), max(ys) + 1)}
        for y in range(WIDTH):
            xs = [x for (x, fy) in faults if fy == y]
            if xs:
                expected |= {(x, y) for x in range(min(xs), max(xs) + 1)}
        assert {tuple(c) for c in np.argwhere(filled)} == expected

    @settings(max_examples=60, deadline=None)
    @given(faults=fault_sets)
    def test_hull_fixpoint(self, faults):
        mask = _mask(faults)
        hull = LOOPS_OPS.hull_fixpoint(mask)
        assert np.array_equal(hull, NUMPY_OPS.hull_fixpoint(mask))
        expected = set(orthogonal_convex_hull_sets(faults))
        assert {tuple(c) for c in np.argwhere(hull)} == expected

    @settings(max_examples=60, deadline=None)
    @given(faults=fault_sets)
    def test_nonconvex_labels(self, faults):
        mask = _mask(faults)
        labels, count = NUMPY_OPS.label_components(mask, 4)
        flagged = LOOPS_OPS.nonconvex_labels(labels, count)
        base = NUMPY_OPS.nonconvex_labels(labels, count)
        # Values (not dtypes) are the contract: the loop kernel returns
        # int64, numpy's ``unique`` keeps the label dtype.
        assert flagged.tolist() == base.tolist()
        assert flagged.tolist() == sorted(flagged.tolist())
        flagged_set = set(flagged.tolist())
        for label in range(1, count + 1):
            region = {tuple(c) for c in np.argwhere(labels == label)}
            assert (label in flagged_set) == (not is_orthogonal_convex_sets(region))

    @settings(max_examples=60, deadline=None)
    @given(faults=fault_sets)
    def test_jump_tables(self, faults):
        disabled = _mask(faults)
        tables = LOOPS_OPS.jump_tables(disabled)
        base = NUMPY_OPS.jump_tables(disabled)
        for table, expected in zip(tables, base):
            assert table.dtype == np.int64
            assert np.array_equal(table, expected)
        east, west, north, south = tables
        for x in range(WIDTH):
            for y in range(WIDTH):
                blocked_east = [bx for (bx, by) in faults if by == y and bx > x]
                assert east[x, y] == (min(blocked_east) if blocked_east else WIDTH)
                blocked_west = [bx for (bx, by) in faults if by == y and bx < x]
                assert west[x, y] == (max(blocked_west) if blocked_west else -1)
                blocked_north = [by for (bx, by) in faults if bx == x and by > y]
                assert north[x, y] == (min(blocked_north) if blocked_north else WIDTH)
                blocked_south = [by for (bx, by) in faults if bx == x and by < y]
                assert south[x, y] == (max(blocked_south) if blocked_south else -1)

    def test_scan_lanes_on_recorded_calls(self):
        # No input strategy reproduces the engine's packed rings, so record
        # every scan a real batch route makes through the seam and replay
        # the same arguments through the reference.
        calls = []

        def record(*args):
            result = NUMPY_OPS.scan_lanes(*args)
            calls.append(
                (
                    [np.copy(a) if isinstance(a, np.ndarray) else a for a in args],
                    [np.copy(r) for r in result],
                )
            )
            return result

        with running(dataclasses.replace(NUMPY_OPS, scan_lanes=record)):
            for seed in range(20):
                scenario = generate_scenario(
                    num_faults=25, width=WIDTH, model="clustered", seed=seed
                )
                MeshSession.from_scenario(scenario).route("mfp", messages=150, seed=seed)
        assert len(calls) >= 100
        for args, expected in calls:
            replayed = LOOPS_OPS.scan_lanes(*args)
            for got, want in zip(replayed, expected):
                assert np.array_equal(got, want)


    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_grant_messages(self, data):
        channels = 20
        active = np.array(
            sorted(data.draw(st.sets(st.integers(0, 99), max_size=30))),
            dtype=np.int64,
        )
        requested = np.array(
            data.draw(
                st.lists(
                    st.integers(0, channels - 1),
                    min_size=active.size,
                    max_size=active.size,
                )
            ),
            dtype=np.int64,
        )
        occupied = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=channels, max_size=channels)
            ),
            dtype=bool,
        )
        granted = LOOPS_OPS.grant_messages(requested, active, occupied)
        base = NUMPY_OPS.grant_messages(requested, active, occupied)
        assert granted.tolist() == base.tolist()
        lowest_bidder = {}
        for message, channel in zip(active.tolist(), requested.tolist()):
            if channel not in lowest_bidder or message < lowest_bidder[channel]:
                lowest_bidder[channel] = message
        expected = [
            lowest_bidder[channel]
            for channel in sorted(lowest_bidder)
            if not occupied[channel]
        ]
        assert granted.tolist() == expected


# -- end-to-end equivalence: the reference swapped in through the seam ---------------


class TestEndToEndEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(faults=fault_sets)
    def test_route_stats_identical_across_backends(self, faults):
        records = {}
        for ops in (NUMPY_OPS, LOOPS_OPS):
            with running(ops):
                stats = MeshSession(width=WIDTH, faults=sorted(faults)).route(
                    "mfp", traffic="transpose", messages=150, seed=3
                )
            assert stats.backend == ops.key
            assert stats.engine == "batch"
            records[ops.key] = _route_fields(stats)
        assert records["numpy"] == records["loops"]

    def test_simulate_fingerprint_identical_across_backends(self):
        scenario = generate_scenario(num_faults=20, width=16, seed=4)
        runs = {}
        for ops in (NUMPY_OPS, LOOPS_OPS):
            with running(ops):
                stats = MeshSession.from_scenario(scenario).simulate(
                    "mfp", load=0.05, cycles=48, seed=2
                )
            assert stats.backend == ops.key
            runs[ops.key] = (
                stats.delivery_fingerprint,
                stats.attempted,
                stats.delivered,
                stats.total_latency,
                stats.cycles_run,
            )
        assert runs["numpy"] == runs["loops"]

    @settings(max_examples=25, deadline=None)
    @given(faults=fault_sets, torus=st.booleans())
    def test_constructions_identical_across_backends(self, faults, torus):
        disabled = {}
        for ops in (NUMPY_OPS, LOOPS_OPS):
            with running(ops):
                session = MeshSession(width=WIDTH, faults=sorted(faults), torus=torus)
                disabled[ops.key] = {
                    key: session.build(key).disabled_set() for key in ("fb", "fp", "mfp")
                }
        assert disabled["numpy"] == disabled["loops"]


class TestStatsProvenance:
    def test_route_records_effective_backend(self):
        faults = [(2, 2), (2, 3), (7, 7)]
        stats = MeshSession(width=10, faults=faults).route("mfp", messages=50, seed=0)
        assert stats.backend == "numpy"
        assert _array_ops.active_backend_key() == "numpy"
        with running(LOOPS_OPS):
            stats = MeshSession(width=10, faults=faults).route(
                "mfp", messages=50, seed=0
            )
            assert stats.backend == "loops"
        assert _array_ops.active_ops() is NUMPY_OPS
