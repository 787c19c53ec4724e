"""Tests for the unified routing API (router registry, RoutingSession,
SweepExecutor routing sweeps) and the routing behaviour behind it."""


import pytest

from repro.api import (
    MeshSession,
    MissingRouteResultsError,
    RouterSpec,
    RoutingStats,
    SweepExecutor,
    TrafficContext,
    get_router,
    get_traffic,
    register_router,
    router_keys,
    run_routing_trial,
)
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D
from repro.routing.engine import route_scalar
from repro.routing.registry import ECubeRouter, ExtendedECubeOptions
from repro.sim.figures import routing_series


def _custom_traffic(context, count, rng, options):
    """A module-level custom generator: it pickles by reference, the way
    a user-defined workload reaches spawned workers."""
    from repro.routing import traffic as _traffic

    return _traffic._uniform(context, count, rng, options)


@pytest.fixture
def clustered_session():
    scenario = generate_scenario(num_faults=50, width=20, model="clustered", seed=13)
    return MeshSession.from_scenario(scenario)


def _stats_fingerprint(stats):
    return (
        stats.attempted,
        stats.delivered,
        stats.failed,
        stats.total_hops,
        stats.total_detour,
        stats.minimal_routes,
        stats.abnormal_routes,
    )


class TestRouterRegistry:
    def test_builtin_routers_registered(self):
        assert set(router_keys()) >= {"ecube", "extended-ecube"}
        assert get_router("extended") is get_router("extended-ecube")
        assert get_router("XY") is get_router("ecube")

    def test_unknown_router_lists_registered(self):
        with pytest.raises(KeyError, match="extended-ecube"):
            get_router("wormhole")

    def test_build_from_construction_result(self, clustered_session):
        result = clustered_session.build("mfp")
        router = get_router("extended-ecube").build(result)
        assert router.topology == clustered_session.topology
        assert router.num_enabled == 400 - len(router.disabled)
        some_disabled = next(iter(router.disabled))
        assert router.region_of(some_disabled) >= 0

    def test_build_from_explicit_regions(self, figure2_region):
        router = get_router("ecube").build(
            regions=[figure2_region], topology=Mesh2D(10, 10)
        )
        assert isinstance(router, ECubeRouter)
        assert router.is_disabled((2, 4))

    def test_build_requires_regions_or_construction(self):
        with pytest.raises(ValueError, match="construction result or explicit"):
            get_router("ecube").build(topology=Mesh2D(5, 5))

    def test_option_overrides(self, clustered_session):
        result = clustered_session.build("mfp")
        router = get_router("extended-ecube").build(result, max_hops=3)
        assert router.max_hops == 3
        with pytest.raises(TypeError, match="ExtendedECubeOptions"):
            get_router("ecube").build(result, options=ExtendedECubeOptions())

    def test_duplicate_registration_rejected(self):
        spec = get_router("ecube")
        with pytest.raises(ValueError, match="already registered"):
            register_router(
                RouterSpec(
                    key="ecube",
                    label="EC2",
                    description="clash",
                    builder=spec.builder,
                )
            )

    def test_ecube_baseline_never_beats_extended(self, clustered_session):
        extended = clustered_session.route("mfp", messages=300, seed=2)
        baseline = clustered_session.route("mfp", router="ecube", messages=300, seed=2)
        assert baseline.delivered <= extended.delivered
        assert baseline.abnormal_routes == 0


class TestRoutingSession:
    def test_route_returns_annotated_stats(self, clustered_session):
        stats = clustered_session.route("mfp", traffic="transpose", messages=120, seed=3)
        assert stats.attempted == 120
        assert stats.model == "MFP"
        assert stats.traffic == "transpose"
        assert stats.router == "extended-ecube"
        assert stats.enabled > 0
        assert 0.0 <= stats.delivery_rate <= 1.0

    def test_routers_cached_until_faults_change(self, clustered_session):
        first = clustered_session.router()
        assert clustered_session.router() is first
        hits = clustered_session.cache_info["router_hits"]
        assert hits >= 1
        clustered_session.add_faults([(0, 0)])
        assert clustered_session.router() is not first

    def test_route_reflects_fault_updates(self, clustered_session):
        before = clustered_session.route("mfp", messages=100, seed=1)
        clustered_session.add_faults([(10, 2), (10, 3), (11, 2)])
        after = clustered_session.route("mfp", messages=100, seed=1)
        assert after.enabled < before.enabled

    def test_route_is_deterministic_per_seed(self, clustered_session):
        a = clustered_session.route("fp", traffic="hotspot", messages=150, seed=9)
        b = clustered_session.route("fp", traffic="hotspot", messages=150, seed=9)
        assert _stats_fingerprint(a) == _stats_fingerprint(b)

    def test_route_on_torus_session(self):
        scenario = generate_scenario(
            num_faults=20, width=12, model="clustered", seed=4, torus=True
        )
        session = MeshSession.from_scenario(scenario)
        stats = session.route("mfp", messages=80, seed=1)
        assert stats.attempted == 80
        assert stats.delivery_rate > 0.0

    def test_traffic_option_overrides_forwarded(self, clustered_session):
        default = clustered_session.route(
            "mfp", traffic="nearest-neighbour", messages=100, seed=2
        )
        wider = clustered_session.route(
            "mfp", traffic="nearest-neighbour", messages=100, seed=2, radius=2
        )
        # Radius 1 sends over single links only; the override must widen it.
        assert default.mean_hops == 1.0 and default.mean_detour == 0.0
        assert wider.attempted == 100
        assert wider.mean_hops > 1.0


class TestDeadlockFootgun:
    def test_check_deadlock_auto_enables_collection(self, clustered_session):
        stats = clustered_session.route("mfp", messages=80, seed=5, check_deadlock=True)
        # Collection was enabled automatically, which selects the scalar
        # engine: it keeps one result per attempted route.
        assert stats.engine == "scalar"
        assert len(stats.results) == stats.attempted

    def test_structured_error_without_results(self, clustered_session):
        stats = clustered_session.route("mfp", messages=80, seed=5)
        assert stats.results == []
        with pytest.raises(MissingRouteResultsError, match="collect_results"):
            stats.deadlock_free()
        # The structured error still satisfies legacy ValueError handlers.
        assert issubclass(MissingRouteResultsError, ValueError)


def _route_uniform(topology, regions, messages, seed):
    """Route one uniform batch around explicit *regions* through the
    router and traffic registries and the scalar engine."""
    router = get_router("extended-ecube").build(regions=regions, topology=topology)
    context = TrafficContext.from_router(router)
    batch = get_traffic("uniform").generate(context, messages, seed=seed)
    stats = RoutingStats(enabled=context.num_enabled)
    route_scalar(router, batch, stats)
    return router, batch, stats


class TestRoutingStats:
    def test_empty_stats_defaults(self):
        stats = RoutingStats()
        assert stats.delivery_rate == 1.0
        assert stats.mean_hops == 0.0
        assert stats.minimal_fraction == 1.0
        assert stats.abnormal_fraction == 0.0


class TestRoutingBehaviour:
    def test_fault_free_routes_are_all_minimal(self):
        stats = MeshSession(width=12).route(
            "mfp", messages=200, seed=1, check_deadlock=True
        )
        assert stats.attempted == 200
        assert stats.delivery_rate == 1.0
        assert stats.minimal_fraction == 1.0
        assert stats.mean_detour == 0.0
        # Dimension-ordered traffic alone has no channel-dependency cycle.
        assert stats.deadlock_free()

    def test_single_polygon_is_routed_around(self, figure2_region):
        _, _, stats = _route_uniform(Mesh2D(10, 10), [figure2_region], 300, seed=3)
        assert stats.delivery_rate == 1.0
        assert 0 < stats.abnormal_fraction < 0.5
        assert stats.mean_hops >= 1.0

    def test_endpoints_are_enabled_nodes_only(self, figure2_region):
        router, batch, stats = _route_uniform(
            Mesh2D(10, 10), [figure2_region], 50, seed=2
        )
        assert stats.enabled == 100 - len(figure2_region)
        for source, destination in batch.pairs():
            assert not router.is_disabled(source)
            assert not router.is_disabled(destination)
            assert source != destination

    def test_seeded_routes_are_reproducible(self, figure2_region):
        a = _route_uniform(Mesh2D(10, 10), [figure2_region], 100, seed=5)[2]
        b = _route_uniform(Mesh2D(10, 10), [figure2_region], 100, seed=5)[2]
        assert _stats_fingerprint(a) == _stats_fingerprint(b)

    def test_mfp_keeps_at_least_as_many_endpoints_as_fb(self):
        # The practical payoff of the minimum polygons: more nodes stay
        # usable as message endpoints for the same fault pattern.
        scenario = generate_scenario(num_faults=60, width=20, model="clustered", seed=13)
        session = MeshSession.from_scenario(scenario)
        fb = session.route("fb", messages=10, seed=0)
        mfp = session.route("mfp", messages=10, seed=0)
        assert mfp.enabled >= fb.enabled

    def test_two_node_mesh(self):
        # Degenerate case: only two enabled nodes left.
        _, _, stats = _route_uniform(Mesh2D(2, 2), [{(0, 0), (1, 1)}], 10, seed=6)
        assert stats.attempted == 10


class TestRoutingSweeps:
    def test_two_runs_bit_identical(self):
        kwargs = dict(
            kind="routing",
            width=16,
            distribution="clustered",
            traffic="permutation",
            messages=60,
        )
        def fingerprint(points):
            return [
                [
                    (point.mean_delivery_rate(m), point.mean_hops(m), point.mean_detour(m))
                    for m in point.models()
                ]
                for point in points
            ]

        assert fingerprint(SweepExecutor().run([15, 30], 2, **kwargs)) == fingerprint(
            SweepExecutor().run([15, 30], 2, **kwargs)
        )

    def test_pluggable_reducer(self):
        seen = []

        def reducer(num_faults, distribution, trials):
            seen.append((num_faults, distribution, len(trials)))
            return num_faults

        points = SweepExecutor(models=("fb",), workers=1).run(
            [10, 20], trials=2, kind="routing", width=14, messages=30, reducer=reducer
        )
        assert points == [10, 20]
        assert seen == [(10, "random", 2), (20, "random", 2)]

    def test_trial_spec_round_trip(self):
        executor = SweepExecutor(models=("fb", "mfp"), workers=1)
        specs = executor.plan(
            [12], 2, kind="routing", width=14, traffic="transpose", messages=40
        )
        assert len(specs) == 2
        assert specs[0].seed != specs[1].seed
        metrics = run_routing_trial(specs[0])
        assert set(metrics.per_model) == {"FB", "MFP"}
        assert metrics.traffic == "transpose"

    def test_bad_traffic_key_fails_before_dispatch(self):
        with pytest.raises(KeyError, match="unknown traffic"):
            SweepExecutor(models=("fb",)).plan([10], 1, kind="routing", traffic="nope")

    def test_worker_reregisters_custom_traffic(self):
        """A trial spec carries its traffic spec so workers whose fresh
        registry lacks a custom workload can re-register it (regression:
        previously only construction specs were carried)."""
        from repro.api import RoutingTrialSpec, get_construction
        from repro.routing.traffic import TrafficSpec, _WORKLOADS

        spec_obj = TrafficSpec(
            key="custom-traffic-test",
            label="CT",
            description="worker re-registration test",
            generator=_custom_traffic,
        )
        trial = RoutingTrialSpec(
            num_faults=8,
            seed=1,
            width=12,
            models=("fb",),
            traffic="custom-traffic-test",
            messages=20,
            specs=(get_construction("fb"),),
            traffic_spec=spec_obj,
        )
        assert "custom-traffic-test" not in _WORKLOADS.specs
        try:
            metrics = run_routing_trial(trial)
            assert metrics.traffic == "custom-traffic-test"
            assert metrics.per_model["FB"].attempted == 20
        finally:
            _WORKLOADS.specs.pop("custom-traffic-test", None)

    def test_routing_series_from_points(self):
        points = SweepExecutor().run(
            [10, 20], 1, kind="routing", width=14, messages=40, traffic="transpose"
        )
        figure = routing_series(points, metric="delivery_rate")
        assert figure.x_values == [10, 20]
        assert set(figure.series) == {"FB", "FP", "MFP"}
        # The labels come from the points, not from restated defaults.
        assert figure.figure == "routing/delivery_rate (transpose)"
        assert figure.distribution == "random"
        with pytest.raises(KeyError, match="unknown routing metric"):
            routing_series(points, metric="nope")
