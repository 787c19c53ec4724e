"""repro.api -- the canonical public surface of the reproduction package.

Four layers, replacing the ~50 loose functions the package historically
exported from its top level:

* :mod:`repro.api.registry` -- a pluggable registry mapping string keys
  (``"fb"``, ``"fp"``, ``"mfp"``, ``"cmfp"``, ``"dmfp"``) to
  :class:`ConstructionSpec` objects with one uniform
  ``build(scenario, *, options) -> ConstructionResult`` protocol and typed
  option dataclasses.
* :mod:`repro.api.session` -- :class:`MeshSession`, a stateful mesh that
  supports ``add_faults`` / ``remove_faults`` / ``clear`` with
  per-construction result caching; untouched components are served by
  the process-wide shape memos of the constructions.
* :mod:`repro.api.routing` -- :class:`RoutingSession`, the routing facade
  of the session: routers resolved through the router registry
  (``get_router("ecube" | "extended-ecube")``), synthetic workloads
  through the traffic registry (``get_traffic("uniform" | "transpose" |
  "bit-reversal" | "hotspot" | "nearest-neighbour" | "permutation")``),
  routers cached per construction and invalidated on fault updates.
* :mod:`repro.api.executor` -- :class:`SweepExecutor`, which fans
  sweeps out over ``multiprocessing`` with deterministic per-trial seeds
  and pluggable reducers.  ``run(axis, trials, kind=...)`` runs any entry
  of :data:`TRIAL_KINDS`: construction sweeps (the paper's figures),
  routing sweeps and latency-vs-load sweeps.

On top of the routing facade sits the network simulator of
:mod:`repro.netsim` (:class:`NetSimSession`, reachable as
``session.simulate(...)``): open-loop injection, per-virtual-channel
contention, latency / saturation verdicts.  It replays on the vectorized
``array`` simulator; ``sim="scalar"`` replays on the bit-identical
dict-based oracle instead.

Underneath all of it, the hot array primitives (labelling, span fills,
jump-table scans, traversal windows, netsim arbitration) have one NumPy
implementation in :mod:`repro._array_ops`, pinned by the differential
tests against the loop-nest reference of :mod:`repro._array_loops`.

Quickstart::

    from repro.api import MeshSession, SweepExecutor, get_construction

    session = MeshSession(width=100)
    session.add_faults([(10, 10), (10, 11), (40, 40)])
    mfp = session.build("mfp")
    print(mfp.num_disabled_nonfaulty, mfp.rounds)

    stats = session.route("mfp", traffic="transpose", messages=2000, seed=1)
    print(stats.delivery_rate, stats.mean_detour)

    points = SweepExecutor(workers=4).run([100, 200, 400], trials=3)
    routing = SweepExecutor(models=("fb", "fp", "mfp"), workers=4).run(
        [100, 200, 400], trials=3, kind="routing", traffic="hotspot", messages=500
    )
"""

from repro.api.registry import (
    ConstructionOptions,
    ConstructionResult,
    ConstructionSpec,
    DistributedOptions,
    FaultyBlockOptions,
    MinimumPolygonOptions,
    SubMinimumOptions,
    available_constructions,
    build_construction,
    construction_keys,
    get_construction,
    register_construction,
)
from repro.api.session import MeshSession
from repro.api.routing import RoutingSession
from repro.api.executor import (
    DEFAULT_MODELS,
    DEFAULT_NETSIM_MODELS,
    DEFAULT_ROUTING_MODELS,
    TRIAL_KINDS,
    NetSimTrialSpec,
    RoutingTrialSpec,
    SweepExecutor,
    TrialKind,
    TrialSpec,
    collect_scenario_metrics,
    latency_point_reducer,
    routing_point_reducer,
    run_netsim_trial,
    run_routing_trial,
    run_trial,
    sweep_point_reducer,
)
from repro.netsim import NetSimSession, NetSimStats
from repro.routing.registry import (
    RouterOptions,
    RouterSpec,
    available_routers,
    get_router,
    register_router,
    router_keys,
)
from repro.routing.stats import MissingRouteResultsError, RoutingStats
from repro.routing.traffic import (
    ArrivalOptions,
    BurstyArrivalOptions,
    PoissonArrivalOptions,
    TrafficBatch,
    TrafficContext,
    TrafficOptions,
    TrafficSpec,
    available_traffic,
    get_traffic,
    register_traffic,
    traffic_keys,
)

__all__ = [
    # construction registry
    "ConstructionSpec",
    "ConstructionResult",
    "ConstructionOptions",
    "FaultyBlockOptions",
    "SubMinimumOptions",
    "MinimumPolygonOptions",
    "DistributedOptions",
    "register_construction",
    "get_construction",
    "available_constructions",
    "construction_keys",
    "build_construction",
    # session
    "MeshSession",
    # routing facade + registries
    "RoutingSession",
    "RoutingStats",
    "MissingRouteResultsError",
    "RouterSpec",
    "RouterOptions",
    "get_router",
    "register_router",
    "router_keys",
    "available_routers",
    "TrafficSpec",
    "TrafficBatch",
    "TrafficContext",
    "TrafficOptions",
    "ArrivalOptions",
    "PoissonArrivalOptions",
    "BurstyArrivalOptions",
    "get_traffic",
    "register_traffic",
    "traffic_keys",
    "available_traffic",
    # network simulator facade
    "NetSimSession",
    "NetSimStats",
    # executor
    "SweepExecutor",
    "TRIAL_KINDS",
    "TrialKind",
    "TrialSpec",
    "RoutingTrialSpec",
    "NetSimTrialSpec",
    "DEFAULT_MODELS",
    "DEFAULT_ROUTING_MODELS",
    "DEFAULT_NETSIM_MODELS",
    "collect_scenario_metrics",
    "run_trial",
    "run_routing_trial",
    "run_netsim_trial",
    "sweep_point_reducer",
    "routing_point_reducer",
    "latency_point_reducer",
]
