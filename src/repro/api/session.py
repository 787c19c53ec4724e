"""Stateful mesh sessions with incremental fault updates.

The paper's simulation shape -- "faults are sequentially added" to a
100x100 mesh, with every construction re-run after each insertion -- makes
a full rebuild per step needlessly expensive: most fault components are
untouched by a new batch of faults, yet the one-shot builders recompute
every per-component polygon and labelling emulation from scratch.

:class:`MeshSession` owns a topology plus the evolving fault set and keeps
the component partition *incrementally*: ``add_faults`` merges each new
fault into the adjacent components in O(batch) instead of re-scanning the
whole fault set.  Component-local artefacts (minimum-polygon hulls and
labelling-emulation rounds) are cached keyed by the component's node set,
so after an update only the components actually touched by new faults --
the *dirty* components -- are recomputed; the cheap network-wide piling
step then reassembles the full result.  The cached hull/labelling entries
carry their polygons as coordinate arrays built by the mask kernel
(:mod:`repro.geometry.masks`), so the reassembly concatenates whole arrays
instead of iterating frozensets.  DMFP keeps no session cache: its
per-component outcomes come from a process-wide memo keyed by component
shape (:func:`repro.distributed.dmfp.component_outcome`).  The
incremental results are bit-identical to one-shot builds on the same fault
set (asserted by the property tests in ``tests/test_api_session.py``).

Constructions are requested through the registry keys of
:mod:`repro.api.registry`::

    session = MeshSession(width=100)
    session.add_faults([(3, 4), (3, 5)])
    mfp = session.build("mfp")
    session.add_faults([(60, 60)])          # far away: polygon cache hits
    mfp2 = session.build("mfp")

Whole-network constructions (FB/FP run labelling schemes over the full
grid) cannot be updated component-locally; they fall back to a full build,
still cached per fault-set version so repeated queries are free.

Routing hangs off the same session (:mod:`repro.api.routing`): routers
built over the cached construction results are themselves cached and
invalidated by ``add_faults``, and ``session.route(key, traffic=...)``
runs a whole routing experiment from registry keys alone::

    stats = session.route("mfp", traffic="transpose", messages=2000, seed=1)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.api.registry import (
    ConstructionOptions,
    ConstructionResult,
    ConstructionSpec,
    get_construction,
    incremental_builder,
    register_incremental,
)
from repro.core.components import FaultComponent
from repro.core.mfp import (
    ComponentPolygon,
    assemble_minimum_polygons,
    component_minimum_polygon,
    component_polygon_via_labelling,
    emulate_rounds_each,
)
from repro.distributed.dmfp import assemble_distributed
from repro.faults.links import links_to_node_faults, make_link_fault_set
from repro.faults.scenario import FaultScenario
from repro.geometry import masks
from repro.geometry.boundary import eight_neighbours
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
        self._faults: List[Coord] = []
        self._fault_set: Set[Coord] = set()
        # Incremental component partition: component id -> mutable node set.
        self._members: Dict[int, Set[Coord]] = {}
        self._comp_of: Dict[Coord, int] = {}
        self._next_comp_id = 0
        self._version = 0
        self._components: Optional[List[FaultComponent]] = None
        # Per-component-id caches of the frozen node set and its minimum
        # node, invalidated only when that component is touched -- so
        # rebuilding the component list after a batch costs O(changed),
        # not O(total faults).
        self._frozen_members: Dict[int, FrozenSet[Coord]] = {}
        self._comp_min: Dict[int, Coord] = {}
        # Reused FaultComponent objects keyed by node set; an unchanged
        # component with an unchanged index keeps its identity across
        # versions, which lets cached artefacts skip re-anchoring.
        self._component_objects: Dict[FrozenSet[Coord], FaultComponent] = {}
        # Component-local caches keyed by the component's frozen node set; a
        # merge produces a new node set, so dirty components miss naturally.
        self._hull_cache: Dict[FrozenSet[Coord], ComponentPolygon] = {}
        self._labelling_cache: Dict[FrozenSet[Coord], ComponentPolygon] = {}
        self._rounds_cache: Dict[FrozenSet[Coord], int] = {}
        # Whole-result cache: (key, options) -> (version, result).
        self._results: Dict[Tuple[str, ConstructionOptions], Tuple[int, ConstructionResult]] = {}
        # Routing facade, created lazily on first router/route/routing use;
        # its router caches are keyed by the session version, so add_faults
        # invalidates them without an explicit hook.
        self._routing = None
        # Int hit/miss counters, plus the "array_backend" provenance string
        # the routing facade maintains.
        self.cache_info: Dict[str, Any] = {
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
        return frozenset(self._fault_set)

    def state(self) -> Dict[str, Any]:
        """The session's durable state as a JSON-safe dict.

        Captures everything :meth:`from_state` needs to reconstruct a
        bit-identical session: topology shape/kind, the fault list *in
        insertion order* (component discovery order depends on it), and
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
        reproduces the original's :meth:`fingerprint` exactly.
        """
        session = cls(
            width=int(state["width"]),
            height=int(state["height"]),
            torus=bool(state.get("torus", False)),
        )
        session.add_faults(tuple(int(v) for v in fault) for fault in state["faults"])
        session._version = int(state["version"])
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
        """Inject a batch of faults, merging components incrementally.

        Already-faulty positions are skipped.  Returns the list of newly
        injected positions (insertion order).  Component membership is
        updated in O(batch size): each new fault joins (and possibly
        merges) only the components adjacent to it under the paper's
        8-adjacency (Definition 2).
        """
        # Validate the whole batch before mutating anything, so a rejected
        # node cannot leave the session holding half the batch with stale
        # caches (the version bump only happens at the end).
        batch: List[Coord] = []
        for node in nodes:
            node = (int(node[0]), int(node[1]))
            self._topology.validate(node)
            batch.append(node)
        added: List[Coord] = []
        for node in batch:
            if node in self._fault_set:
                continue
            self._fault_set.add(node)
            self._faults.append(node)
            added.append(node)
            touching = {
                self._comp_of[n]
                for n in eight_neighbours(node)
                if n in self._comp_of
            }
            if not touching:
                comp_id = self._next_comp_id
                self._next_comp_id += 1
                self._members[comp_id] = {node}
                self._comp_min[comp_id] = node
            else:
                # Merge everything into the largest touched component.
                comp_id = max(touching, key=lambda cid: len(self._members[cid]))
                best_min = min(self._comp_min[cid] for cid in touching)
                for other in touching - {comp_id}:
                    moved = self._members.pop(other)
                    self._frozen_members.pop(other, None)
                    self._comp_min.pop(other, None)
                    for member in moved:
                        self._comp_of[member] = comp_id
                    self._members[comp_id].update(moved)
                self._members[comp_id].add(node)
                self._frozen_members.pop(comp_id, None)
                self._comp_min[comp_id] = min(best_min, node)
            self._comp_of[node] = comp_id
        if added:
            self._version += 1
            self._components = None
        return added

    def remove_fault(self, node: Coord) -> bool:
        """Repair a single fault; returns ``False`` if not currently faulty."""
        return bool(self.remove_faults([node]))

    def remove_faults(self, nodes: Iterable[Coord]) -> List[Coord]:
        """Repair a batch of faults, re-splitting components incrementally.

        The inverse of :meth:`add_faults`: positions that are not currently
        faulty are skipped, and the list of actually repaired positions is
        returned.  Only the components that lost a member are revisited --
        each is re-partitioned by a flood fill over its *remaining* members
        under the paper's 8-adjacency, since removing a cut node can split
        one component into several.  Untouched components (and therefore
        their cached polygons and rounds) survive unchanged.
        """
        batch: List[Coord] = []
        for node in nodes:
            node = (int(node[0]), int(node[1]))
            self._topology.validate(node)
            batch.append(node)
        removed: List[Coord] = []
        affected: Set[int] = set()
        for node in batch:
            if node not in self._fault_set:
                continue
            self._fault_set.discard(node)
            removed.append(node)
            comp_id = self._comp_of.pop(node)
            self._members[comp_id].discard(node)
            affected.add(comp_id)
        if not removed:
            return removed
        for comp_id in affected:
            survivors = self._members.pop(comp_id)
            self._frozen_members.pop(comp_id, None)
            self._comp_min.pop(comp_id, None)
            # Flood-fill the survivors into (possibly several) fresh
            # components; fresh ids are fine because components() orders by
            # minimal node, not id.
            while survivors:
                seed = survivors.pop()
                piece = {seed}
                frontier = [seed]
                while frontier:
                    current = frontier.pop()
                    for neighbour in eight_neighbours(current):
                        if neighbour in survivors:
                            survivors.discard(neighbour)
                            piece.add(neighbour)
                            frontier.append(neighbour)
                new_id = self._next_comp_id
                self._next_comp_id += 1
                self._members[new_id] = piece
                self._comp_min[new_id] = min(piece)
                for member in piece:
                    self._comp_of[member] = new_id
        self._faults = [f for f in self._faults if f in self._fault_set]
        self._version += 1
        self._components = None
        return removed

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
            fault_set, self._fault_set, prefer_lower=prefer_lower
        )
        return self.add_faults(n for n in mapped if n not in self._fault_set)

    def clear(self) -> None:
        """Drop all faults and every cached artefact."""
        self._faults.clear()
        self._fault_set.clear()
        self._members.clear()
        self._comp_of.clear()
        self._frozen_members.clear()
        self._comp_min.clear()
        self._component_objects.clear()
        self._next_comp_id = 0
        self._version += 1
        self._components = None
        self._hull_cache.clear()
        self._labelling_cache.clear()
        self._rounds_cache.clear()
        self._results.clear()

    # -- components ----------------------------------------------------------------

    def components(self) -> List[FaultComponent]:
        """The current fault components, in ``find_components`` order.

        Components are ordered by their minimal node (the discovery order
        of :func:`repro.core.components.find_components`), so incremental
        and one-shot builds expose identical component lists.
        """
        if self._components is None:
            ordered_ids = sorted(self._members, key=self._comp_min.__getitem__)
            components: List[FaultComponent] = []
            for index, comp_id in enumerate(ordered_ids):
                nodes = self._frozen_members.get(comp_id)
                if nodes is None:
                    nodes = frozenset(self._members[comp_id])
                    self._frozen_members[comp_id] = nodes
                component = self._component_objects.get(nodes)
                if component is None or component.index != index:
                    component = FaultComponent(index=index, nodes=nodes)
                    self._component_objects[nodes] = component
                components.append(component)
            self._components = components
            self._prune_component_caches()
        return self._components

    def _prune_component_caches(self) -> None:
        """Drop cache entries of components that no longer exist (merged)."""
        live = set(self._frozen_members.values())
        for cache in (
            self._hull_cache,
            self._labelling_cache,
            self._rounds_cache,
            self._component_objects,
        ):
            for key in [k for k in cache if k not in live]:
                del cache[key]

    # -- cached component-local artefacts -------------------------------------------

    def _component_artifact(self, cache: Dict, component: FaultComponent, compute):
        entry = cache.get(component.nodes)
        if entry is None:
            self.cache_info["component_misses"] += 1
            entry = compute(component)
            cache[component.nodes] = entry
        else:
            self.cache_info["component_hits"] += 1
        return entry

    def component_hull(self, component: FaultComponent) -> ComponentPolygon:
        """The component's minimum polygon (hull fill), cached.

        The cached entry carries the polygon's coordinate array (built by
        the mask kernel), so reassembling the network-wide result
        concatenates whole arrays instead of iterating coordinate sets.
        """
        entry = self._component_artifact(
            self._hull_cache, component, component_minimum_polygon
        )
        if entry.component is not component:
            # Re-anchor the cached polygon on the current component object
            # (indices shift as components appear) and keep the re-wrapped
            # entry so later builds of the same version hit it directly.
            # dataclasses.replace preserves the cached coordinate array.
            entry = dataclasses.replace(entry, component=component)
            self._hull_cache[component.nodes] = entry
        return entry

    def component_labelling(self, component: FaultComponent) -> ComponentPolygon:
        """The component's labelling-emulation polygon and rounds, cached."""
        entry = self._component_artifact(
            self._labelling_cache, component, component_polygon_via_labelling
        )
        if entry.component is not component:
            entry = dataclasses.replace(entry, component=component)
            self._labelling_cache[component.nodes] = entry
        return entry

    def emulation_rounds(self, components: Sequence[FaultComponent]) -> int:
        """Maximum labelling-emulation rounds over *components*, cached.

        Round counts depend only on a component's shape, so they are cached
        per node set; the cache misses are emulated batched
        (:func:`repro.core.mfp.emulate_rounds_each`) instead of one
        labelling run per component.  With the mask kernel switched off the
        per-component labelling emulation runs instead, so the oracle path
        stays entirely legacy.
        """
        if not masks.kernel_enabled():
            rounds = 0
            for component in components:
                entry = self.component_labelling(component)
                rounds = max(rounds, entry.rounds)
            return rounds
        missing = [c for c in components if c.nodes not in self._rounds_cache]
        if missing:
            self.cache_info["component_misses"] += len(missing)
            for component, rounds in zip(missing, emulate_rounds_each(missing)):
                self._rounds_cache[component.nodes] = rounds
        self.cache_info["component_hits"] += len(components) - len(missing)
        return max(
            (self._rounds_cache[c.nodes] for c in components), default=0
        )

    # -- construction builds ---------------------------------------------------------

    def build(
        self,
        key: str,
        *,
        options: Optional[ConstructionOptions] = None,
        **overrides,
    ) -> ConstructionResult:
        """Build (or fetch from cache) the construction registered as *key*.

        Results are cached per (key, options) until the fault set changes;
        constructions with a registered incremental builder only recompute
        the components touched since their artefacts were last cached.
        """
        spec = get_construction(key)
        opts = spec.make_options(options, overrides)
        cache_key = (spec.key, opts)
        cached = self._results.get(cache_key)
        if cached is not None and cached[0] == self._version:
            self.cache_info["result_hits"] += 1
            return cached[1]
        self.cache_info["result_misses"] += 1
        incremental = (
            incremental_builder(spec.key) if spec.supports_incremental else None
        )
        if incremental is not None:
            result = incremental(self, spec, opts)
        else:
            result = spec.build(self.faults, self._topology, options=opts)
        self._results[cache_key] = (self._version, result)
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

    def router(self, router: str = "extended-ecube", construction: str = "mfp", **kwargs):
        """Build (or fetch from cache) a router over a cached construction.

        Convenience for :meth:`RoutingSession.router`; see
        :mod:`repro.api.routing` for the full parameter list.
        """
        return self.routing.router(router, construction, **kwargs)

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
            f"{self.num_faults} faults, {len(self._members)} components"
        )


# -- incremental builders -----------------------------------------------------------


def _incremental_minimum_polygons(
    session: MeshSession, spec: ConstructionSpec, options: ConstructionOptions
) -> ConstructionResult:
    """Incremental centralized MFP/CMFP: reuse clean components' polygons."""
    components = session.components()
    via_labelling = getattr(options, "via_labelling", False)
    compute_rounds = spec.key == "cmfp" or getattr(options, "compute_rounds", True)

    polygons: List[ComponentPolygon] = []
    rounds = 0
    for component in components:
        if via_labelling:
            # Solution A always carries its emulation rounds, regardless of
            # compute_rounds -- matching build_minimum_polygons_via_labelling.
            entry = session.component_labelling(component)
            rounds = max(rounds, entry.rounds)
        else:
            entry = session.component_hull(component)
        polygons.append(entry)
    if compute_rounds and not via_labelling:
        rounds = session.emulation_rounds(components)
    construction = assemble_minimum_polygons(
        session.faults, session.topology, polygons, rounds, components
    )
    return spec.wrap(construction, options)


def _incremental_distributed(
    session: MeshSession, spec: ConstructionSpec, options: ConstructionOptions
) -> ConstructionResult:
    """Incremental DMFP: the session's component partition, no rescan.

    The per-component outcomes come from the process-wide shape memo of
    :func:`repro.distributed.dmfp.component_outcome`, which serves clean
    and dirty components alike and re-plans exactly the components whose
    concave sections hold another component's fault.
    """
    construction = assemble_distributed(
        session.faults, session.topology, session.components()
    )
    return spec.wrap(construction, options)


register_incremental("mfp", _incremental_minimum_polygons)
register_incremental("cmfp", _incremental_minimum_polygons)
register_incremental("dmfp", _incremental_distributed)
