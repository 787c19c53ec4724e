"""The routing facade of the session layer.

:class:`RoutingSession` hangs off :class:`repro.api.MeshSession` and makes
routing a first-class citizen of the ``repro.api`` surface: routers are
resolved through the router registry (:mod:`repro.routing.registry`),
workloads through the traffic registry (:mod:`repro.routing.traffic`), and
everything is built on top of the session's cached
:class:`~repro.api.ConstructionResult` -- including its region-index grid,
so a router instantiation costs O(1) region-membership work.

Routers take no options.  Each is cached per ``(router, construction)``
key, with its traffic context built on the first read, and invalidated
automatically when ``add_faults`` / ``clear`` bump the session version,
exactly like the construction result cache::

    session = MeshSession(width=50, faults=faults)
    stats = session.route("mfp", traffic="transpose", messages=2000, seed=1)
    session.add_faults([(3, 4)])        # routers rebuilt lazily on next use
    stats2 = session.route("mfp", traffic="transpose", messages=2000, seed=1)

``route`` returns a :class:`repro.routing.stats.RoutingStats` annotated
with the construction/traffic/router/engine labels and the enabled
endpoint count, ready for sweep tables.  Requesting ``check_deadlock=True``
auto-enables per-route result collection, so the channel-dependency check
can never fail mid-analysis for lack of results.

**Engine rule.**  The call picks the engine
(:func:`~repro.routing.engine.resolve_engine`): ``route`` runs the
vectorized **batch** kernel whenever it can serve the request -- per-route
results not requested (``collect_results=False`` and no
``check_deadlock``) and the router one of the built-ins -- and the
per-message **scalar** loop (:func:`~repro.routing.engine.route_scalar`)
otherwise.  The two produce bit-identical aggregate statistics; the engine
that ran is recorded on ``stats.engine``.

A router rebuilt after ``add_faults`` starts from its predecessor
(:func:`~repro.routing.engine.transplant_engine_state`): the survivor map
of the two index grids names every region the update left as it was, and
the new router takes over those regions' boundary-ring geometry (ring
walks, position maps, bounding boxes) and packed rings under their new
indices, reading no node set and building no ``FaultRegion``.  The
session also owns a :class:`~repro.routing.engine.RegionRingCache`
attached to every router it builds, through which the regions the update
changed resolve their geometry, so a repair that restores an earlier
region finds it there.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from repro import _array_ops
from repro.routing.engine import (
    RegionRingCache,
    resolve_engine,
    transplant_engine_state,
)
from repro.routing.registry import get_router
from repro.routing.stats import RoutingStats
from repro.routing.traffic import TrafficContext, TrafficOptions, get_traffic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import MeshSession


@dataclass
class _CachedRouter:
    """One router-cache entry: the router built at one session version.

    Its traffic context (an ``np.nonzero`` over the whole mask) is built on
    the first read, so a caller that only asks for the router (the
    daemon's flush) never pays for it.
    """

    version: int
    router: Any

    @cached_property
    def context(self) -> TrafficContext:
        return TrafficContext.from_router(self.router)


class RoutingSession:
    """Cached routers and traffic contexts on top of one :class:`MeshSession`.

    Obtained via :attr:`MeshSession.routing` (or the ``router`` / ``route``
    convenience methods on the session itself); not usually instantiated
    directly.
    """

    def __init__(self, session: "MeshSession") -> None:
        # Weak: the session owns this facade, and a strong back-reference
        # would make a cycle that only the cyclic garbage collector frees.
        self._session = weakref.ref(session)
        # (router key, construction key) -> the router of one session version
        self._routers: Dict[Tuple[str, Any], _CachedRouter] = {}
        self._netsim = None
        session.cache_info.setdefault("router_hits", 0)
        session.cache_info.setdefault("router_misses", 0)
        session.cache_info.setdefault("ring_hits", 0)
        session.cache_info.setdefault("ring_misses", 0)
        # Engine-state rebuild observability: full jump-table builds, full
        # ring packs, and fault-delta transplants that avoided them.
        session.cache_info.setdefault("jump_rebuilds", 0)
        session.cache_info.setdefault("ring_rebuilds", 0)
        session.cache_info.setdefault("delta_applies", 0)
        # Scalar walks that fast-forwarded a livelock cycle.
        session.cache_info.setdefault("livelock_skips", 0)
        # Session-level boundary-ring geometry, keyed by region identity
        # (the frozen node set): survives add_faults, so a region an update
        # changed finds its rings here when it had that node set before.
        self._ring_cache = RegionRingCache(counters=session.cache_info)

    @property
    def session(self) -> "MeshSession":
        """The mesh session this facade routes on."""
        session = self._session()
        if session is None:
            raise ReferenceError("the MeshSession of this routing facade was freed")
        return session

    @property
    def ring_cache(self) -> RegionRingCache:
        """The session's shared per-region boundary-ring geometry cache."""
        return self._ring_cache

    # -- cached builds ---------------------------------------------------------------

    def _resolve(self, router: str, construction: str):
        """Resolve ``(router spec, construction result, cache entry)`` once.

        One registry lookup, one session ``build`` (itself cached), one
        router-cache probe: the shared path under :meth:`router`,
        :meth:`context`, :meth:`route` and :meth:`simulate`.  Entries are
        keyed by the session version, so any ``add_faults`` / ``clear``
        invalidates routers and their contexts automatically.
        """
        spec = get_router(router)
        session = self.session
        result = session.build(construction)
        key = (spec.key, result.key)
        version = session.version
        cached = self._routers.get(key)
        if cached is not None and cached.version == version:
            session.cache_info["router_hits"] += 1
            return spec, result, cached
        session.cache_info["router_misses"] += 1
        router_obj = spec.build(result)
        attach = getattr(router_obj, "attach_ring_cache", None)
        if attach is not None:
            attach(self._ring_cache)
        attach_counters = getattr(router_obj, "attach_counters", None)
        if attach_counters is not None:
            attach_counters(session.cache_info)
        # A fault update invalidated the previous router for this key:
        # instead of rebuilding its engine state (jump tables, ring
        # geometry, packed rings) from scratch, delta-patch it from the
        # predecessor -- only the touched rows/columns/regions are
        # re-derived.  The differential tests replace this module's
        # ``transplant_engine_state`` to get full rebuilds.
        if cached is not None and transplant_engine_state(cached.router, router_obj):
            session.cache_info["delta_applies"] += 1
        entry = self._routers[key] = _CachedRouter(version, router_obj)
        return spec, result, entry

    def router(self, router: str = "extended-ecube", construction: str = "mfp"):
        """Build (or fetch from cache) a router over a cached construction.

        The construction is resolved through the session's result cache,
        so repeated calls after the same fault set cost one dictionary
        lookup; any ``add_faults`` invalidates the router automatically
        (the cache is keyed by the session version).
        """
        return self._resolve(router, construction)[2].router

    def context(
        self, router: str = "extended-ecube", construction: str = "mfp"
    ) -> TrafficContext:
        """The traffic context (enabled index arrays + mask) of a router."""
        return self._resolve(router, construction)[2].context

    # -- routing experiments ---------------------------------------------------------

    def route(
        self,
        construction: str = "mfp",
        *,
        traffic: str = "uniform",
        messages: int = 1000,
        seed: int = 0,
        router: str = "extended-ecube",
        traffic_options: Optional[TrafficOptions] = None,
        collect_results: bool = False,
        check_deadlock: bool = False,
        **traffic_overrides: Any,
    ) -> RoutingStats:
        """Route one generated message batch and return the statistics.

        *construction*, *traffic* and *router* are registry keys; keyword
        *traffic_overrides* are field overrides of the workload's option
        type (e.g. ``fraction=0.8`` for ``hotspot``).  Generation is
        deterministic in *seed*: the same seed on the same fault set
        yields a bit-identical batch (and therefore identical stats).

        The batch kernel routes the batch unless per-route results are
        requested or the router is not a built-in; the scalar loop routes
        it then.  Both give bit-identical statistics, and
        ``stats.engine`` names the one that ran.

        *check_deadlock* runs the channel-dependency-cycle analysis on the
        delivered routes; per-route result collection is enabled
        automatically for the check (which also selects the scalar
        engine), so it cannot raise
        :class:`~repro.routing.stats.MissingRouteResultsError`.  Read the
        verdict via ``stats.deadlock_free()``.  This is the *static*
        evidence (no reachable channel-dependency cycle); for the dynamic
        counterpart -- does the configuration actually stall under load --
        run the network simulator instead (:meth:`simulate`), whose
        :class:`~repro.netsim.stats.NetSimStats` reports a ``deadlocked``
        verdict without keeping per-route results.
        """
        traffic_spec = get_traffic(traffic)
        router_spec, result, entry = self._resolve(router, construction)
        router_obj, context = entry.router, entry.context
        batch = traffic_spec.generate(
            context,
            messages,
            rng=np.random.default_rng(seed),
            options=traffic_options,
            **traffic_overrides,
        )
        collect = collect_results or check_deadlock
        engine = resolve_engine(router_obj, collect)
        stats = RoutingStats(
            collect_results=collect,
            enabled=context.num_enabled,
            model=result.label,
            traffic=traffic_spec.key,
            router=router_spec.key,
            engine=engine.key,
            backend=_array_ops.active_backend_key(),
        )
        engine.runner(router_obj, batch, stats)
        if check_deadlock:
            stats.deadlock_free()
        return stats

    # -- network simulation ----------------------------------------------------------

    @property
    def netsim(self):
        """The session's network-simulation facade (:class:`NetSimSession`).

        Plans built through it reuse this session's cached routers and
        construction results and are invalidated automatically by
        ``add_faults`` / ``clear``.
        """
        if self._netsim is None:
            # Imported lazily: the netsim facade is optional machinery on
            # top of the routing layer.
            from repro.netsim.session import NetSimSession

            self._netsim = NetSimSession(self)
        return self._netsim

    def simulate(self, construction: str = "mfp", **kwargs):
        """Run one open-loop contention simulation over a cached construction.

        Convenience for :meth:`repro.netsim.NetSimSession.simulate`: the
        spatial workload and arrival process resolve through the traffic
        registry, and the routed paths are memoised per router /
        construction across calls.  Returns a
        :class:`~repro.netsim.stats.NetSimStats`.
        """
        return self.netsim.simulate(construction, **kwargs)
