"""Differential and property tests of the batch routing engine.

The batch engine of :mod:`repro.routing.engine` must be *bit-identical*
to the scalar router: same per-message delivered flag, hop count,
abnormal-hop count and failure reason, and therefore identical
:class:`~repro.routing.stats.RoutingStats` aggregates, for every traffic
pattern, topology and fault scenario.  The Hypothesis suites here assert
exactly that, on kernel-built constructions and on the set-based reference
construction; deterministic regressions pin the border-hugging /
opposite-orientation-retry traversals and the engine-selection rule.
Session-level differentials compare against the scalar oracle
:func:`~repro.routing.engine.route_scalar`, called by name on the batch the
session routed (the ``scalar_route`` fixture).
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import MeshSession, RoutingTrialSpec, SweepExecutor
from repro.api import routing as api_routing
from repro.core import reference
from repro.core.mfp import build_minimum_polygons
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D, Torus2D
from repro.routing.engine import (
    BATCH_ENGINE,
    DELIVERED,
    REASONS,
    SCALAR_ENGINE,
    JumpTables,
    RegionRingCache,
    resolve_engine,
    route_batch,
    route_scalar,
    supports_router,
)
from repro.routing.extended_ecube import ExtendedECubeRouter
from repro.routing.registry import get_router
from repro.routing.stats import RoutingStats
from repro.routing.traffic import TrafficBatch, TrafficContext, get_traffic, traffic_keys

coords12 = st.tuples(st.integers(0, 11), st.integers(0, 11))
fault_sets = st.sets(coords12, min_size=0, max_size=16)

STATS_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)


def stats_fingerprint(stats):
    return tuple(getattr(stats, field) for field in STATS_FIELDS)


def assert_batch_matches_scalar(router, batch, **route_batch_kwargs):
    """Per-message differential: kernel outcome == scalar route outcome."""
    outcome = route_batch(router, batch, **route_batch_kwargs)
    scalar_reasons = Counter()
    for index, (source, destination) in enumerate(batch.pairs()):
        result = router.route(source, destination)
        delivered = bool(outcome.status[index] == DELIVERED)
        assert result.delivered == delivered, (source, destination)
        if result.delivered:
            assert result.hops == outcome.hops[index], (source, destination)
            assert result.abnormal_hops == outcome.abnormal_hops[index], (
                source,
                destination,
            )
        else:
            scalar_reasons[result.reason] += 1
            assert result.reason == REASONS[int(outcome.status[index])], (
                source,
                destination,
            )
        counts = router.route_counts(source, destination)
        assert counts == (
            result.delivered,
            result.hops,
            result.abnormal_hops,
            result.reason,
        ), (source, destination)
    assert outcome.reason_counts() == dict(scalar_reasons)
    return outcome


class TestEngineRegistry:
    def test_supports_router_is_exact_type(self):
        session = MeshSession(width=8, faults=[(3, 3)])
        assert supports_router(session.router())
        assert supports_router(session.router("ecube"))

        class Custom(ExtendedECubeRouter):
            def route(self, source, destination):  # pragma: no cover
                raise NotImplementedError

        assert not supports_router(Custom(Mesh2D(8, 8), []))


class TestEngineSelection:
    @pytest.fixture
    def session(self):
        scenario = generate_scenario(
            num_faults=30, width=14, model="clustered", seed=3
        )
        return MeshSession.from_scenario(scenario)

    def test_auto_picks_batch_without_results(self, session):
        assert session.route("mfp", messages=40).engine == "batch"

    @pytest.mark.parametrize("torus", [False, True], ids=["mesh", "torus"])
    @pytest.mark.parametrize("router", ["extended-ecube", "ecube"])
    def test_builtin_routers_route_on_batch(self, router, torus, scalar_route):
        scenario = generate_scenario(
            num_faults=30, width=14, model="clustered", seed=3, torus=torus
        )
        session = MeshSession.from_scenario(scenario)
        route = dict(router=router, messages=200, seed=4)
        stats = session.route("mfp", **route)
        assert stats.engine == "batch"
        oracle = scalar_route(session, "mfp", **route)
        assert stats_fingerprint(stats) == stats_fingerprint(oracle)
        assert stats.enabled == oracle.enabled

    def test_collect_results_forces_scalar(self, session, scalar_route):
        stats = session.route("mfp", messages=40, collect_results=True)
        assert stats.engine == "scalar"
        assert len(stats.results) == stats.attempted
        oracle = scalar_route(session, "mfp", messages=40, collect_results=True)
        assert stats.results == oracle.results
        assert stats_fingerprint(stats) == stats_fingerprint(oracle)

    def test_check_deadlock_selects_scalar(self, session, scalar_route):
        stats = session.route("mfp", messages=40, seed=2, check_deadlock=True)
        assert stats.engine == "scalar"
        oracle = scalar_route(session, "mfp", messages=40, seed=2, collect_results=True)
        assert stats.results == oracle.results
        assert stats_fingerprint(stats) == stats_fingerprint(oracle)

    def test_resolve_engine_is_the_only_choice(self, session):
        router = session.router()
        # One argument, as the pipeline benchmark calls it.
        assert resolve_engine(router) is BATCH_ENGINE
        assert resolve_engine(router).key == "batch"
        assert resolve_engine(router, True) is SCALAR_ENGINE
        assert SCALAR_ENGINE.runner is route_scalar
        with pytest.raises(TypeError):
            session.route("mfp", messages=10, engine="batch")

    def test_explicit_batch_with_results_raises(self, session):
        router = session.router()
        batch = get_traffic("uniform").generate(session.routing.context(), 10, seed=0)
        with pytest.raises(ValueError, match="route_scalar"):
            BATCH_ENGINE.runner(router, batch, RoutingStats(collect_results=True))

    def test_explicit_engines_are_bit_identical(self, session, scalar_route):
        batch = session.route("mfp", messages=300, seed=9)
        scalar = scalar_route(session, "mfp", messages=300, seed=9)
        assert batch.engine == "batch"
        assert stats_fingerprint(scalar) == stats_fingerprint(batch)
        assert scalar.enabled == batch.enabled

    def test_custom_router_falls_back_to_scalar(self, session, scalar_route):
        from repro.routing.registry import RouterSpec, register_router

        class Custom(ExtendedECubeRouter):
            pass

        spec = RouterSpec(
            key="custom-engine-test",
            label="CT",
            description="subclassed router for engine fallback test",
            builder=lambda topology, regions, region_index, options: Custom(
                topology, regions, region_index=region_index
            ),
        )
        register_router(spec, replace=True)
        stats = session.route("mfp", messages=20, router="custom-engine-test")
        assert stats.engine == "scalar"
        oracle = scalar_route(session, "mfp", messages=20, router="custom-engine-test")
        assert stats_fingerprint(stats) == stats_fingerprint(oracle)


class TestJumpTables:
    @settings(max_examples=25, deadline=None)
    @given(fault_sets)
    def test_tables_match_bruteforce(self, faults):
        disabled = np.zeros((12, 12), dtype=bool)
        for x, y in faults:
            disabled[x, y] = True
        tables = JumpTables.from_disabled(disabled)
        for x in range(12):
            for y in range(12):
                east = next((i for i in range(x + 1, 12) if disabled[i, y]), 12)
                west = next((i for i in range(x - 1, -1, -1) if disabled[i, y]), -1)
                north = next((j for j in range(y + 1, 12) if disabled[x, j]), 12)
                south = next((j for j in range(y - 1, -1, -1) if disabled[x, j]), -1)
                assert tables.east[x, y] == east
                assert tables.west[x, y] == west
                assert tables.north[x, y] == north
                assert tables.south[x, y] == south


class TestBatchDifferential:
    """The heart of the suite: batch == scalar on randomized scenarios."""

    @settings(max_examples=15, deadline=None)
    @given(fault_sets, st.integers(0, 2**31 - 1), st.booleans())
    @pytest.mark.parametrize("traffic", sorted(traffic_keys()))
    def test_patterns_mesh_and_torus(self, traffic, faults, seed, torus):
        topology = Torus2D(12, 12) if torus else Mesh2D(12, 12)
        construction = build_minimum_polygons(
            sorted(faults), topology=topology, compute_rounds=False
        )
        router = get_router("extended-ecube").build(construction)
        context = TrafficContext.from_router(router)
        batch = get_traffic(traffic).generate(context, 50, seed=seed)
        # scalar_finish=0 keeps the whole batch on the lockstep kernel, so
        # small Hypothesis batches exercise it rather than the scalar tail.
        assert_batch_matches_scalar(router, batch, scalar_finish=0)

    @settings(max_examples=20, deadline=None)
    @given(fault_sets, st.integers(0, 2**31 - 1))
    def test_default_hybrid_and_ecube(self, faults, seed):
        construction = build_minimum_polygons(
            sorted(faults), topology=Mesh2D(12, 12), compute_rounds=False
        )
        for key in ("extended-ecube", "ecube"):
            router = get_router(key).build(construction)
            context = TrafficContext.from_router(router)
            batch = get_traffic("uniform").generate(context, 40, seed=seed)
            assert_batch_matches_scalar(router, batch)

    @settings(max_examples=10, deadline=None)
    @given(fault_sets, st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_tight_hop_budgets(self, faults, max_hops, seed):
        construction = build_minimum_polygons(
            sorted(faults), topology=Mesh2D(12, 12), compute_rounds=False
        )
        router = get_router("extended-ecube").build(construction, max_hops=max_hops)
        context = TrafficContext.from_router(router)
        batch = get_traffic("uniform").generate(context, 40, seed=seed)
        assert_batch_matches_scalar(router, batch, scalar_finish=0)

    @settings(max_examples=10, deadline=None)
    @given(fault_sets, st.integers(0, 2**31 - 1))
    def test_mask_kernel_off_path(self, faults, seed):
        # The set-based reference construction carries no region-index
        # grid, so the router derives its own from the region list.
        construction = reference.build_mfp(
            sorted(faults), Mesh2D(12, 12), compute_rounds=False
        )
        router = get_router("extended-ecube").build(construction)
        context = TrafficContext.from_router(router)
        batch = get_traffic("uniform").generate(context, 40, seed=seed)
        assert_batch_matches_scalar(router, batch, scalar_finish=0)

    def test_session_stats_identical_across_engines_all_patterns(self, scalar_route):
        for torus in (False, True):
            scenario = generate_scenario(
                num_faults=45, width=16, model="clustered", seed=5, torus=torus
            )
            session = MeshSession.from_scenario(scenario)
            for traffic in traffic_keys():
                scalar = scalar_route(session, "mfp", traffic=traffic, messages=200, seed=11)
                batch = session.route("mfp", traffic=traffic, messages=200, seed=11)
                assert batch.engine == "batch"
                assert stats_fingerprint(scalar) == stats_fingerprint(batch), traffic


class TestTraversalRegressions:
    def test_border_hugging_region_retries_opposite_orientation(self):
        # A region glued to the west border: the clockwise walk of an
        # NS/SN-bound message steps off the mesh at x=-1, so the scalar
        # retries counter-clockwise -- the batch kernel must do the same.
        region = [(0, 4), (0, 5), (1, 4), (1, 5)]
        router = ExtendedECubeRouter(Mesh2D(10, 10), [region])
        batch = TrafficBatch(
            np.array([0, 0]), np.array([1, 8]), np.array([0, 0]), np.array([8, 1])
        )
        outcome = assert_batch_matches_scalar(router, batch, scalar_finish=0)
        assert outcome.delivered.all()
        assert (outcome.abnormal_hops > 0).any()

    def test_all_four_borders(self):
        topology = Mesh2D(9, 9)
        for region in (
            [(0, 4)],  # west border
            [(8, 4)],  # east border
            [(4, 0)],  # south border
            [(4, 8)],  # north border
        ):
            router = ExtendedECubeRouter(topology, [region])
            context = TrafficContext.from_router(router)
            batch = get_traffic("uniform").generate(context, 120, seed=0)
            assert_batch_matches_scalar(router, batch, scalar_finish=0)

    def test_obstructed_traversal_reason_matches(self):
        # Two regions one lane apart: circling the first runs into the
        # second, so both orientations fail and the scalar reports the
        # second traversal's reason.
        regions = [[(4, 3), (4, 4), (4, 5)], [(6, 3), (6, 4), (6, 5)]]
        router = ExtendedECubeRouter(Mesh2D(11, 11), regions)
        batch = TrafficBatch(
            np.array([3, 0]), np.array([4, 4]), np.array([5, 10]), np.array([4, 4])
        )
        assert_batch_matches_scalar(router, batch, scalar_finish=0)

    def test_empty_batch_and_self_messages(self):
        router = ExtendedECubeRouter(Mesh2D(8, 8), [[(3, 3)]])
        empty = TrafficBatch.empty()
        assert len(route_batch(router, empty)) == 0
        loops = TrafficBatch(
            np.array([1, 5]), np.array([1, 5]), np.array([1, 5]), np.array([1, 5])
        )
        outcome = assert_batch_matches_scalar(router, loops, scalar_finish=0)
        assert outcome.delivered.all()
        assert (outcome.hops == 0).all()

    def test_disabled_endpoints(self):
        router = ExtendedECubeRouter(Mesh2D(8, 8), [[(3, 3), (5, 5)]])
        batch = TrafficBatch(
            np.array([3, 0, 3]),
            np.array([3, 0, 3]),
            np.array([0, 5, 5]),
            np.array([0, 5, 5]),
        )
        outcome = assert_batch_matches_scalar(router, batch, scalar_finish=0)
        assert outcome.reason_counts() == {
            "source disabled": 2,
            "destination disabled": 1,
        }


class TestRegionRingCache:
    def test_rings_reused_across_rebuilds(self):
        session = MeshSession(width=24, faults=[(3, 3), (3, 4), (18, 18)])
        session.route("mfp", messages=150, seed=0)
        misses = session.cache_info["ring_misses"]
        assert misses > 0
        # A far-away fault leaves the existing regions' node sets intact:
        # the rebuilt router must reuse their ring geometry.
        session.add_faults([(10, 20)])
        session.route("mfp", messages=150, seed=0)
        assert session.cache_info["ring_hits"] > 0
        cache = session.routing.ring_cache
        assert len(cache) >= misses

    def test_geometry_identity_shared(self):
        session = MeshSession(width=16, faults=[(5, 5), (5, 6)])
        router_a = session.router()
        router_a.route((4, 2), (4, 9))  # resolve the ring lazily
        before = router_a.region_geometry(0)
        session.add_faults([(12, 12)])
        router_b = session.router()
        router_b.route((4, 2), (4, 9))
        index = router_b.region_of((5, 5))
        assert router_b.region_geometry(index) is before

    def test_lru_eviction_bounds_entries(self):
        cache = RegionRingCache(max_entries=2)
        for nodes in ([(0, 0)], [(1, 1)], [(2, 2)]):
            cache.geometry(frozenset(nodes))
        assert len(cache) == 2
        assert cache.misses == 3


class TestSweepAndCLI:
    def test_routing_sweep_engine_choice_is_bit_identical(self, monkeypatch):
        kwargs = dict(
            axis=[12, 25],
            trials=2,
            width=14,
            distribution="clustered",
            traffic="transpose",
            messages=60,
        )
        executor = SweepExecutor(models=("fb", "mfp"))
        batch_points = executor.run(kind="routing", **kwargs)
        # The same serial sweep with every route on the scalar oracle.
        monkeypatch.setattr(
            api_routing, "resolve_engine", lambda router, collect_results=False: SCALAR_ENGINE
        )
        scalar_points = executor.run(kind="routing", **kwargs)
        for scalar_point, batch_point in zip(scalar_points, batch_points):
            assert scalar_point.models() == batch_point.models()
            for model in scalar_point.models():
                for metric in ("delivery_rate", "mean_hops", "mean_detour"):
                    assert scalar_point.mean(model, metric) == batch_point.mean(
                        model, metric
                    )

    def test_routing_plan_takes_no_engine(self):
        executor = SweepExecutor(models=("mfp",))
        with pytest.raises(TypeError, match="engine"):
            executor.plan([10], 1, kind="routing", engine="batch")
        fields = {f.name for f in dataclasses.fields(RoutingTrialSpec)}
        assert not fields & {"engine", "engine_spec"}

    def test_cli_route_engine_flag(self, capsys):
        from repro.cli import main

        route = ["route", "--faults", "15", "--width", "12", "--messages", "40"]
        assert main(route) == 0
        # The header names the engine that ran, not a requested one.
        assert "engine: batch" in capsys.readouterr().out
        with pytest.raises(SystemExit) as refused:
            main(route + ["--engine", "batch"])
        assert refused.value.code != 0
        assert "--engine" in capsys.readouterr().err

    def test_cli_sweep_routing_engine_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as refused:
            main(
                [
                    "sweep",
                    "--width", "12", "--fault-counts", "6", "--trials", "1",
                    "--routing", "--messages", "30", "--engine", "scalar",
                ]
            )
        assert refused.value.code != 0
        assert "--engine" in capsys.readouterr().err
