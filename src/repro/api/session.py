"""Stateful mesh sessions with fault updates and cached constructions.

:class:`MeshSession` follows the paper's simulation shape: "faults are
sequentially added" to a 100x100 mesh, and every construction is re-run
after each insertion.  It owns a topology plus the evolving fault set in
insertion order, caches every construction result until the next
mutation, and rasterises the fault set at most once per version
(:class:`repro.core.raster.FaultRaster`).  The raster's component
partition backs :meth:`MeshSession.fingerprint` and the daemon's
``status``.

A build is the registered construction's one-shot build on the current
fault set's raster, so the builds of one version share its scheme-1
labelling (FB, FP) and component table (MFP, CMFP, DMFP).  MFP, CMFP and
DMFP serve every component that does not fill its bounding box from
process-wide memos keyed by its shape
(:class:`repro.core.components.ShapeMemo`), so the components a mutation
did not touch cost a memo hit; ``cache_info["component_hits"]`` and
``["component_misses"]`` count those lookups across the session's builds.

Constructions are requested through the registry keys of
:mod:`repro.api.registry`::

    session = MeshSession(width=100)
    session.add_faults([(3, 4), (4, 5)])
    mfp = session.build("mfp")
    session.add_faults([(60, 60)])          # far away: the pair's shape hits
    mfp2 = session.build("mfp")

Routing hangs off the same session (:mod:`repro.api.routing`): routers
built over the cached construction results are themselves cached and
invalidated by ``add_faults``, and ``session.route(key, traffic=...)``
runs a whole routing experiment from registry keys alone::

    stats = session.route("mfp", traffic="transpose", messages=2000, seed=1)
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.api.registry import ConstructionResult, get_construction
from repro.core.components import FaultComponent, shape_memo_counts
from repro.core.raster import FaultRaster
from repro.faults.links import links_to_node_faults, make_link_fault_set
from repro.faults.scenario import FaultScenario
from repro.geometry.masks import integer_rows, validated_coords
from repro.mesh.topology import Mesh2D, Topology, Torus2D
from repro.types import Coord


class MeshSession:
    """A topology plus an evolving fault set, with cached constructions.

    Parameters
    ----------
    width, height:
        Mesh dimensions (square when *height* is omitted, the paper's
        default shape).
    torus:
        Use a 2-D torus instead of a mesh.
    topology:
        Explicit topology object (overrides *width*/*height*/*torus*).
    faults:
        Initial fault set, inserted as a first ``add_faults`` batch.
    """

    def __init__(
        self,
        width: int = 100,
        height: Optional[int] = None,
        *,
        torus: bool = False,
        topology: Optional[Topology] = None,
        faults: Iterable[Coord] = (),
    ) -> None:
        if topology is None:
            height = width if height is None else height
            topology = Torus2D(width, height) if torus else Mesh2D(width, height)
        self._topology = topology
        # The fault set; dict keys keep insertion order.
        self._faults: Dict[Coord, None] = {}
        self._version = 0
        # FaultRaster(self._faults), made on first use, reset by every mutation.
        self._raster: Optional[FaultRaster] = None
        # Whole-result cache: key -> (version, result).
        self._results: Dict[str, Tuple[int, ConstructionResult]] = {}
        # Routing facade, created lazily on first router/route/routing use;
        # its router caches are keyed by the session version, so add_faults
        # invalidates them without an explicit hook.
        self._routing = None
        # Int hit/miss counters: result-cache lookups, and the shape-memo
        # counter deltas across this session's builds (see build()); the
        # routing facade adds its own.
        self.cache_info: Dict[str, int] = {
            "result_hits": 0,
            "result_misses": 0,
            "component_hits": 0,
            "component_misses": 0,
        }
        if faults:
            self.add_faults(faults)

    @classmethod
    def from_scenario(cls, scenario: FaultScenario) -> "MeshSession":
        """Create a session preloaded with a generated scenario.

        Scenario link faults (if any) are applied after the node faults via
        the conservative endpoint mapping of :mod:`repro.faults.links`.
        """
        session = cls(topology=scenario.topology(), faults=scenario.faults)
        if scenario.link_faults:
            session.add_link_faults(scenario.link_faults)
        return session

    # -- state ---------------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The topology this session builds on."""
        return self._topology

    @property
    def faults(self) -> Tuple[Coord, ...]:
        """The current fault set, in insertion order."""
        return tuple(self._faults)

    @property
    def num_faults(self) -> int:
        """Number of injected faults."""
        return len(self._faults)

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutating batch."""
        return self._version

    def fault_set(self) -> FrozenSet[Coord]:
        """The current fault positions as a frozenset."""
        return frozenset(self._faults)

    def state(self) -> Dict[str, Any]:
        """The session's durable state as a JSON-safe dict.

        Captures everything :meth:`from_state` needs to reconstruct a
        bit-identical session: topology shape/kind, the fault list *in
        insertion order* (``faults`` and :meth:`fingerprint` keep it), and
        the version counter.  Used by the serve journal's snapshots
        (:mod:`repro.serve.journal`).  Only the built-in ``Mesh2D`` /
        ``Torus2D`` topologies are supported.
        """
        topology = self._topology
        if type(topology) not in (Mesh2D, Torus2D):
            raise ValueError(
                f"cannot snapshot a session over {type(topology).__name__}; "
                "only Mesh2D/Torus2D topologies round-trip through state()"
            )
        return {
            "width": topology.width,
            "height": topology.height,
            "torus": isinstance(topology, Torus2D),
            "faults": [list(fault) for fault in self._faults],
            "version": self._version,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MeshSession":
        """Reconstruct a session from a :meth:`state` snapshot.

        The fault list is re-inserted in its recorded order (one batch
        preserves insertion order) and the version counter is restored,
        so replaying the same mutations against the restored session
        reproduces the original's :meth:`fingerprint` exactly.  Raises
        ``ValueError`` naming the first field off :meth:`state`'s format
        (bools and floats are not ints; ``torus`` may be absent).  Fault
        coordinates follow :func:`~repro.geometry.masks.integer_rows`'s
        element rule, as :meth:`add_faults` does.
        """
        if not isinstance(state, dict):
            raise ValueError(f"session state must be a dict, not {type(state).__name__}")
        for name, low in (("width", 1), ("height", 1), ("version", 0)):
            if type(state.get(name)) is not int or state[name] < low:
                raise ValueError(f"session state {name!r} must be an int >= {low}")
        torus, faults = state.get("torus", False), state.get("faults")
        if not isinstance(torus, bool):
            raise ValueError(f"session state 'torus' must be a bool, got {torus!r}")
        if not isinstance(faults, (list, tuple)) or integer_rows(faults, 2) is None:
            raise ValueError("session state 'faults' must be a list of [x, y] int pairs")
        session = cls(width=state["width"], height=state["height"], torus=torus)
        session.add_faults(faults)
        session._version = state["version"]
        return session

    def fingerprint(self) -> str:
        """SHA-256 witness of the observable session state.

        Hashes the :meth:`state` snapshot plus the component partition
        (node sets in discovery order), so two sessions with equal
        fingerprints route identically: the fault set, its insertion
        order, the components and the version all match.  This is the
        equality the journal-recovery differentials assert
        (``recover()`` == uninterrupted oracle).
        """
        payload = {
            "state": self.state(),
            "components": [
                sorted(map(list, component.nodes))
                for component in self.components()
            ],
        }
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- mutation ------------------------------------------------------------------

    def add_fault(self, node: Coord) -> bool:
        """Inject a single fault; returns ``False`` if already faulty."""
        return bool(self.add_faults([node]))

    def add_faults(self, nodes: Iterable[Coord]) -> List[Coord]:
        """Inject a batch of faults.

        Already-faulty positions are skipped.  Returns the list of newly
        injected positions (insertion order).  A node that is not an
        ``(x, y)`` pair of integers or lies outside the topology raises
        ``ValueError`` naming the first one, and the session is unchanged.
        """
        added = [node for node in self._batch(nodes) if node not in self._faults]
        self._faults.update(dict.fromkeys(added))
        if added:
            self._version += 1
            self._raster = None
        return added

    def remove_faults(self, nodes: Iterable[Coord]) -> List[Coord]:
        """Repair a batch of faults.

        The inverse of :meth:`add_faults`: positions that are not currently
        faulty are skipped, and the list of actually repaired positions is
        returned.  The remaining faults keep their insertion order.  Nodes
        are validated as by :meth:`add_faults`.
        """
        removed = [node for node in self._batch(nodes) if node in self._faults]
        for node in removed:
            del self._faults[node]
        if removed:
            self._version += 1
            self._raster = None
        return removed

    def _batch(self, nodes: Iterable[Coord]) -> Dict[Coord, None]:
        # The batch's distinct nodes in order, all validated before a mutator
        # touches anything: a rejected node leaves the session as it was.
        topology = self._topology
        coords = validated_coords(nodes, topology.width, topology.height, where="topology")
        return dict.fromkeys(map(tuple, coords.tolist()))

    def add_link_faults(
        self, links: Iterable[Sequence[Coord]], *, prefer_lower: bool = True
    ) -> List[Coord]:
        """Inject link faults via the conservative node-fault mapping.

        Each faulty link is mapped onto one of its endpoints by
        :func:`repro.faults.links.links_to_node_faults` (nodes already
        faulty absorb their links for free), and the chosen endpoints are
        injected through :meth:`add_faults`.  Returns the list of newly
        faulty node positions (possibly empty, when every link already
        touches a faulty node).
        """
        fault_set = make_link_fault_set(self._topology, links)
        mapped = links_to_node_faults(
            fault_set, self._faults, prefer_lower=prefer_lower
        )
        return self.add_faults(n for n in mapped if n not in self._faults)

    def clear(self) -> None:
        """Drop all faults and every cached artefact."""
        self._faults.clear()
        self._version += 1
        self._raster = None
        self._results.clear()

    # -- components ----------------------------------------------------------------

    def _fault_raster(self) -> FaultRaster:
        """The current fault set's raster, made at most once per version."""
        if self._raster is None:
            self._raster = FaultRaster(self._faults, self._topology)
        return self._raster

    def components(self) -> List[FaultComponent]:
        """The current fault components, in ``find_components`` order.

        The raster's component table (components ordered by their minimal
        node), labelled at most once per version and shared with the
        MFP, CMFP and DMFP builds, so session and one-shot builds expose
        identical component lists.
        """
        return self._fault_raster().components()

    # -- construction builds ---------------------------------------------------------

    def build(self, key: str) -> ConstructionResult:
        """Build (or fetch from cache) the construction registered as *key*.

        Results are cached per key until the fault set changes.  A build
        is the spec's one-shot build on the current fault set's raster.

        ``cache_info["component_hits"]`` / ``["component_misses"]`` grow by
        how much the process-wide shape-memo counters
        (:func:`repro.core.components.shape_memo_counts`) moved while the
        build ran.  One lookup per memo a construction consults: MFP and
        CMFP look up each non-rectangular component's hull, DMFP its
        outcome and every rectangle's ``(width, height)`` rounds; MFP looks
        up no rectangle.  MFP and CMFP look up their rounds on the first
        read of ``rounds``, after the build, so these counters never see
        those lookups.  The counters are not per thread, so lookups another
        thread makes during the build count too.
        """
        spec = get_construction(key)
        cached = self._results.get(spec.key)
        if cached is not None and cached[0] == self._version:
            self.cache_info["result_hits"] += 1
            return cached[1]
        self.cache_info["result_misses"] += 1
        hits, misses = shape_memo_counts()
        result = spec.build(self._fault_raster(), self._topology)
        after_hits, after_misses = shape_memo_counts()
        self.cache_info["component_hits"] += after_hits - hits
        self.cache_info["component_misses"] += after_misses - misses
        self._results[spec.key] = (self._version, result)
        return result

    def build_all(
        self, keys: Optional[Sequence[str]] = None
    ) -> Dict[str, ConstructionResult]:
        """Build several constructions; defaults to every registered key."""
        if keys is None:
            from repro.api.registry import construction_keys

            keys = construction_keys()
        return {key: self.build(key) for key in keys}

    # -- routing ---------------------------------------------------------------------

    @property
    def routing(self):
        """The session's routing facade (:class:`repro.api.RoutingSession`).

        Routers and traffic contexts built through it reuse this session's
        cached construction results (including the region-index grid) and
        are invalidated automatically by ``add_faults`` / ``clear``.
        """
        if self._routing is None:
            # Imported lazily: repro.api.routing imports this module.
            from repro.api.routing import RoutingSession

            self._routing = RoutingSession(self)
        return self._routing

    def router(self, router: str = "extended-ecube", construction: str = "mfp"):
        """Build (or fetch from cache) a router over a cached construction.

        Convenience for :meth:`RoutingSession.router`; routers take no
        options.
        """
        return self.routing.router(router, construction)

    def route(self, construction: str = "mfp", **kwargs):
        """Route one generated traffic batch over a cached construction.

        Convenience for :meth:`RoutingSession.route`: resolves the
        construction, router and traffic workload through their
        registries, generates a deterministic endpoint batch and returns
        the aggregated :class:`~repro.routing.stats.RoutingStats`.
        """
        return self.routing.route(construction, **kwargs)

    def simulate(self, construction: str = "mfp", **kwargs):
        """Run one open-loop contention simulation over a cached construction.

        Convenience for :meth:`repro.netsim.NetSimSession.simulate` (via
        :attr:`RoutingSession.netsim`): generates a timed traffic batch at
        the requested ``load``, replays the routed paths against
        per-virtual-channel occupancy and returns the
        :class:`~repro.netsim.stats.NetSimStats` (latency arrays, channel
        utilisation, ``saturated`` / ``deadlocked`` verdicts).
        """
        return self.routing.simulate(construction, **kwargs)

    def describe(self) -> str:
        """One-line description used by logs and the CLI."""
        kind = "torus" if isinstance(self._topology, Torus2D) else "mesh"
        return (
            f"{self._topology.width}x{self._topology.height} {kind}, "
            f"{self.num_faults} faults, {len(self.components())} components"
        )
