"""The network-simulation facade of the session layer.

:class:`NetSimSession` hangs off :class:`repro.api.RoutingSession` the same
way the routing facade hangs off :class:`repro.api.MeshSession`: routers and
constructions resolve through the session's caches, and the spatial workload
and the arrival process resolve through the traffic registry.  One call::

    session = MeshSession(width=16, faults=faults)
    stats = session.simulate("mfp", load=0.05, cycles=512, seed=1)
    print(stats.mean_latency, stats.accepted_load, stats.saturated)

runs the whole open-loop pipeline: generate a timed batch (``load`` times
the enabled node count messages per cycle over the injection window), route
every unique endpoint pair once through the scalar router, replay the paths
against per-channel occupancy, and fold the outcome into a
:class:`~repro.netsim.stats.NetSimStats`.

Routed paths are memoised per ``(router, construction, options)`` key and
session version -- a latency-vs-load sweep replays largely the same pair
population at every load point, so only the first point pays the routing
cost.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from repro import _array_ops
from repro.netsim.plan import NUM_VCS, build_plan
from repro.netsim.simulators import resolve_simulator
from repro.netsim.stats import NetSimStats, delivery_fingerprint
from repro.routing.stats import RoutingStats
from repro.routing.traffic import ArrivalOptions, get_traffic, traffic_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.routing import RoutingSession


def arrival_keys() -> Tuple[str, ...]:
    """Keys of the registered arrival-process workloads."""
    return tuple(
        key
        for key in traffic_keys()
        if issubclass(get_traffic(key).options_type, ArrivalOptions)
    )


class NetSimSession:
    """Cached contention simulation on top of one :class:`RoutingSession`.

    Obtained via :attr:`repro.api.RoutingSession.netsim` (or the
    ``simulate`` convenience methods on the routing session and the mesh
    session itself); not usually instantiated directly.
    """

    def __init__(self, routing: "RoutingSession") -> None:
        # Weak, like the routing facade's reference to its session: the
        # routing facade owns this one.
        self._routing = weakref.ref(routing)
        # (router key, construction key, construction opts, router opts)
        #   -> (session version, {(sx, sy, dx, dy) -> path entry})
        self._paths: Dict[Tuple, Tuple[int, Dict]] = {}
        info = routing.session.cache_info
        info.setdefault("path_hits", 0)
        info.setdefault("path_misses", 0)

    @property
    def routing(self) -> "RoutingSession":
        """The routing facade this simulator replays paths from."""
        routing = self._routing()
        if routing is None:
            raise ReferenceError("the RoutingSession of this netsim facade was freed")
        return routing

    def _path_cache(self, key: Tuple) -> Dict:
        """The per-version memo of routed paths for one router/construction."""
        session = self.routing.session
        version = session.version
        cached = self._paths.get(key)
        if cached is not None and cached[0] == version:
            session.cache_info["path_hits"] += 1
            return cached[1]
        session.cache_info["path_misses"] += 1
        fresh: Dict = {}
        self._paths[key] = (version, fresh)
        return fresh

    def simulate(
        self,
        construction: str = "mfp",
        *,
        traffic: str = "uniform",
        arrival: str = "poisson",
        load: float = 0.05,
        cycles: int = 256,
        messages: Optional[int] = None,
        seed: int = 0,
        router: str = "extended-ecube",
        sim: Optional[str] = None,
        drain_factor: int = 8,
        traffic_options=None,
        arrival_options=None,
        router_options=None,
        construction_options=None,
        **traffic_overrides: Any,
    ) -> NetSimStats:
        """Run one open-loop contention simulation and return its statistics.

        *construction*, *traffic*, *arrival* and *router* are registry
        keys: the spatial workload draws the endpoint pairs, the
        arrival process (``poisson`` / ``bursty``) stamps their injection
        cycles at ``load * enabled_nodes`` messages per cycle over the
        *cycles*-long injection window, and the simulator replays the
        routed paths until everything drains or ``cycles * drain_factor``
        is reached.  *messages* overrides the batch size (default: the
        expected count of the offered load).  Keyword *traffic_overrides*
        are field overrides of the spatial workload's option type;
        *arrival_options* of the arrival process's (e.g. ``burst=16``).

        *sim* is ``None`` for the vectorized array simulator or
        ``"scalar"`` for the dict-based oracle that checks it (see
        :func:`~repro.netsim.simulators.resolve_simulator`).

        Everything is deterministic in *seed* -- and in *sim*, since the
        array simulator and the scalar oracle are bit-identical
        (``stats.delivery_fingerprint`` is the witness).
        """
        if load <= 0.0:
            raise ValueError("load must be positive (messages per node per cycle)")
        if cycles < 1:
            raise ValueError("cycles must be at least 1")
        if drain_factor < 1:
            raise ValueError("drain_factor must be at least 1")
        arrival_spec = get_traffic(arrival)
        if not issubclass(arrival_spec.options_type, ArrivalOptions):
            known = ", ".join(arrival_keys())
            raise ValueError(
                f"traffic workload {arrival_spec.key!r} is not an arrival "
                f"process; registered arrival processes: {known}"
            )
        traffic_spec = get_traffic(traffic)
        if issubclass(traffic_spec.options_type, ArrivalOptions):
            raise ValueError(
                f"spatial workload {traffic_spec.key!r} is an arrival process; "
                "pass it as arrival=... and pick a spatial traffic pattern"
            )
        backend_key = _array_ops.active_backend_key()
        sim_spec = resolve_simulator(sim)
        router_spec, result, router_obj, context = self.routing._resolve(
            router, construction, router_options, construction_options
        )
        rate = load * context.num_enabled
        if messages is None:
            messages = int(round(rate * cycles))
        spatial_options = traffic_spec.make_options(
            traffic_options, traffic_overrides
        )
        arrival_opts = arrival_spec.make_options(
            arrival_options,
            {
                "pattern": traffic_spec.key,
                "rate": rate,
                "pattern_options": spatial_options,
            },
        )
        batch = arrival_spec.generate(
            context,
            messages,
            rng=np.random.default_rng(seed),
            options=arrival_opts,
        )
        cache_key = (
            router_spec.key,
            result.key,
            result.options,
            router_spec.make_options(router_options, None),
        )
        plan = build_plan(router_obj, batch, path_cache=self._path_cache(cache_key))
        max_cycles = cycles * drain_factor
        outcome = sim_spec.runner(plan, max_cycles)

        routing_stats = RoutingStats(
            enabled=context.num_enabled,
            model=result.label,
            traffic=traffic_spec.key,
            router=router_spec.key,
            sim=sim_spec.key,
            backend=backend_key,
        )
        routing_stats.attempted = plan.attempted
        routing_stats.delivered = plan.num_routed
        routing_stats.failed = plan.attempted - plan.num_routed
        routing_stats.total_hops = int(plan.lengths.sum())
        routing_stats.total_detour = int((plan.lengths - plan.minimal).sum())
        routing_stats.minimal_routes = int(np.count_nonzero(plan.lengths == plan.minimal))
        routing_stats.abnormal_routes = int(np.count_nonzero(plan.abnormal > 0))

        delivered_mask = outcome.delivery >= 0
        latency = (outcome.delivery - plan.inject)[delivered_mask]
        hops = plan.lengths[delivered_mask]
        stats = NetSimStats(
            model=result.label,
            traffic=traffic_spec.key,
            arrival=arrival_spec.key,
            router=router_spec.key,
            sim=sim_spec.key,
            backend=backend_key,
            load=load,
            cycles=cycles,
            max_cycles=max_cycles,
            enabled=context.num_enabled,
            attempted=plan.attempted,
            unroutable=plan.attempted - plan.num_routed,
            delivered=int(np.count_nonzero(delivered_mask)),
            in_flight=int(np.count_nonzero(~delivered_mask)),
            total_latency=int(latency.sum()),
            total_queueing=int(latency.sum() - hops.sum()),
            total_hops=int(hops.sum()),
            cycles_run=outcome.cycles,
            deadlocked=outcome.deadlocked,
            latency=latency,
            hops=hops,
            inject=plan.inject[delivered_mask],
            busy=outcome.busy.reshape(plan.num_links, NUM_VCS),
            delivery_fingerprint=delivery_fingerprint(outcome.delivery),
            routing=routing_stats,
        )
        return stats
