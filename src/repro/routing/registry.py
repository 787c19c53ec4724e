"""Pluggable registry of fault-tolerant routers.

Mirrors the construction registry of :mod:`repro.api.registry` on the
routing side: every router registers a :class:`RouterSpec` under a short
string key and is built through one uniform protocol::

    router = get_router("extended-ecube").build(construction)
    router = get_router("ecube").build(regions=[region], topology=mesh)

=================  =====  ========================================================
key                label  router
=================  =====  ========================================================
``ecube``          EC     base dimension-ordered x-y routing; fails on the first
                          hop into a fault region (no detours) -- the baseline
``extended-ecube`` XEC    e-cube extended with boundary-ring traversals around
                          orthogonal convex regions (Section 2.2, the paper's
                          routing application)
=================  =====  ========================================================

``build`` accepts a :class:`repro.api.ConstructionResult` (its topology,
regions and -- when the mask kernel produced one -- the cell-to-region
index grid are all reused, so instantiation is O(1) in region membership
work) or explicit ``regions=``/``topology=`` keywords for ad-hoc region
sets.  Routers take no options: a spec's builder is any callable
``(topology, regions, *, region_index=None)``, and the built-ins register
their router classes.  The hop budget ``max_hops`` is an argument of the
router constructor only.

The registry is open: :func:`register_router` plugs a custom router into
:meth:`repro.api.MeshSession.route`, the routing sweeps and the CLI at
once.  A router only needs ``route(source, destination) -> RouteResult``
plus the enabled-endpoint views (``enabled_arrays`` / ``enabled_mask``)
used by the traffic generators.

Torus caveat: both built-in routers route mesh-style x-y paths -- the
paper's Section 2.2 algorithm has no wrap-around channels -- so on a
:class:`~repro.mesh.topology.Torus2D` the wrap links influence the fault
*regions* (component labelling wraps) but never the routed paths, and
``RouteResult.detour`` is measured against the mesh Manhattan distance.
Wrap-adjacent endpoint pairs (e.g. from the ``nearest-neighbour``
workload) therefore route across the mesh interior; a torus-aware router
can be plugged in through this registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._registry import SpecRegistry
from repro.mesh.topology import Topology
from repro.routing.extended_ecube import ExtendedECubeRouter


# -- the base e-cube router ---------------------------------------------------------


class ECubeRouter(ExtendedECubeRouter):
    """Base dimension-ordered routing with no fault-region detours.

    The extended router's walk with the ring traversal switched off
    (``detours = False``): a message fails with the reason "blocked by a
    fault region (base e-cube has no detour)" at the hop where the
    extended router would enter abnormal mode -- the baseline the
    extended routing is measured against.  Its paths are at most
    ``width + height - 2`` hops, so the shared default hop budget of
    ``8 * (width + height)`` never binds.
    """

    detours = False


# -- the spec -----------------------------------------------------------------------

#: A builder instantiates the router: ``(topology, regions, *, region_index=None)``.
Builder = Callable[..., Any]


@dataclass(frozen=True)
class RouterSpec:
    """One registered router."""

    key: str
    label: str
    description: str
    builder: Builder
    aliases: Tuple[str, ...] = ()

    def build(
        self,
        construction: Any = None,
        topology: Optional[Topology] = None,
        *,
        regions: Optional[Sequence] = None,
        region_index: Optional[np.ndarray] = None,
    ):
        """Instantiate the router with the uniform signature.

        *construction* is a :class:`repro.api.ConstructionResult` (or any
        legacy construction object exposing ``grid`` and ``regions``);
        its topology and -- when present -- its region-index grid are
        reused, and the router then reads node sets from the grid, so the
        build looks inside no region (its lazy region list builds no
        ``FaultRegion``; the router ignores a grid of the wrong shape).
        Alternatively pass explicit ``regions=`` (any iterable of
        coordinate sets) with ``topology=`` and, optionally, a precomputed
        ``region_index=`` grid.
        """
        if construction is not None:
            if topology is None:
                topology = construction.grid.topology
            if regions is None:
                regions = construction.regions
            if region_index is None:
                region_index = getattr(construction, "region_index", None)
        if topology is None or regions is None:
            raise ValueError(
                "RouterSpec.build needs a construction result or explicit "
                "regions= and topology= keywords"
            )
        return self.builder(topology, regions, region_index=region_index)


# -- the registry -------------------------------------------------------------------

_ROUTERS = SpecRegistry("router")


def register_router(spec: RouterSpec, replace: bool = False) -> RouterSpec:
    """Register *spec* (and its aliases) in the global router registry.

    Registration makes the router available to ``get_router``,
    :meth:`repro.api.MeshSession.route`, the routing sweeps of
    :class:`repro.api.SweepExecutor` and the CLI ``route --router``
    option.  Raises ``ValueError`` on key collisions unless *replace*.
    """
    return _ROUTERS.register(spec, replace)


def get_router(key: str) -> RouterSpec:
    """Look up a router by key or alias (case-insensitive)."""
    return _ROUTERS.get(key)


def available_routers() -> List[RouterSpec]:
    """Return every registered router spec, in registration order."""
    return _ROUTERS.available()


def router_keys() -> Tuple[str, ...]:
    """Return the registered router keys, in registration order."""
    return _ROUTERS.keys()


# -- built-in routers ---------------------------------------------------------------


register_router(
    RouterSpec(
        key="ecube",
        label="EC",
        description="base dimension-ordered x-y routing (no detours)",
        builder=ECubeRouter,
        aliases=("e-cube", "xy"),
    )
)
register_router(
    RouterSpec(
        key="extended-ecube",
        label="XEC",
        description="e-cube with boundary-ring traversals around convex regions",
        builder=ExtendedECubeRouter,
        aliases=("extended", "extended-e-cube"),
    )
)
