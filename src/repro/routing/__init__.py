"""Fault-tolerant, deadlock-free routing substrate.

Section 2.2 of the paper motivates the minimum faulty polygon model through
its application: Chalasani and Boppana's *extended e-cube* routing steers
messages around orthogonal convex fault regions using four virtual channels.
This subpackage implements that application so that the impact of the fault
models (FB / FP / MFP) on routing can be measured:

* :mod:`repro.routing.ecube` -- the base dimension-ordered (x-y) routing;
* :mod:`repro.routing.extended_ecube` -- routing around fault regions with
  the EW/WE/NS/SN message classes and the clockwise / counter-clockwise
  orientation rules;
* :mod:`repro.routing.registry` -- the pluggable router registry
  (``get_router("ecube" | "extended-ecube")``) with the uniform
  ``RouterSpec.build(construction, ...)`` protocol;
* :mod:`repro.routing.traffic` -- the declarative synthetic traffic
  workloads (uniform, transpose, bit reversal, hotspot, nearest neighbour,
  permutation) generated as vectorized endpoint index arrays;
* :mod:`repro.routing.engine` -- the vectorized lockstep batch kernel
  (straight-run jump tables + precomputed ring arrays) and the
  per-message scalar loop :func:`~repro.routing.engine.route_scalar`,
  bit-identical; each call takes the kernel whenever it can serve it
  (:func:`~repro.routing.engine.resolve_engine`);
* :mod:`repro.routing.channels` -- the four-virtual-channel assignment and a
  channel-dependency-cycle check (deadlock-freedom evidence);
* :mod:`repro.routing.stats` -- the aggregate :class:`RoutingStats` record
  shared by every routing entry point.

The canonical way to run routing experiments is
:meth:`repro.api.MeshSession.route`, which caches routers per construction
and invalidates them on fault updates.
"""

from repro.routing.ecube import ecube_path, ecube_next_hop, initial_message_type
from repro.routing.engine import (
    BatchRouteOutcome,
    EngineSpec,
    JumpTables,
    RegionGeometry,
    RegionRingCache,
    route_batch,
    route_scalar,
)
from repro.routing.extended_ecube import ExtendedECubeRouter, RouteResult
from repro.routing.channels import (
    VirtualChannelAssignment,
    channel_dependency_graph,
    has_cyclic_dependency,
)
from repro.routing.registry import (
    ECubeRouter,
    RouterSpec,
    available_routers,
    get_router,
    register_router,
    router_keys,
)
from repro.routing.stats import MissingRouteResultsError, RoutingStats
from repro.routing.traffic import (
    BitReversalOptions,
    HotspotOptions,
    NearestNeighbourOptions,
    PermutationOptions,
    TrafficBatch,
    TrafficContext,
    TrafficOptions,
    TrafficSpec,
    TransposeOptions,
    UniformOptions,
    available_traffic,
    get_traffic,
    register_traffic,
    traffic_keys,
)

__all__ = [
    "ecube_path",
    "ecube_next_hop",
    "initial_message_type",
    "ExtendedECubeRouter",
    "ECubeRouter",
    "RouteResult",
    "VirtualChannelAssignment",
    "channel_dependency_graph",
    "has_cyclic_dependency",
    # router registry
    "RouterSpec",
    "get_router",
    "register_router",
    "router_keys",
    "available_routers",
    # traffic registry
    "TrafficSpec",
    "TrafficBatch",
    "TrafficContext",
    "TrafficOptions",
    "UniformOptions",
    "TransposeOptions",
    "BitReversalOptions",
    "HotspotOptions",
    "NearestNeighbourOptions",
    "PermutationOptions",
    "get_traffic",
    "register_traffic",
    "traffic_keys",
    "available_traffic",
    # routing engines
    "EngineSpec",
    "BatchRouteOutcome",
    "JumpTables",
    "RegionGeometry",
    "RegionRingCache",
    "route_batch",
    "route_scalar",
    # stats
    "RoutingStats",
    "MissingRouteResultsError",
]
