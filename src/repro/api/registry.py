"""Pluggable registry of fault-region constructions.

Every fault-region model of the paper (and any future model) registers a
:class:`ConstructionSpec` under a short string key:

========  =====  ==========================================================
key       label  construction
========  =====  ==========================================================
``fb``    FB     rectangular faulty blocks (labelling scheme 1)
``fp``    FP     sub-minimum faulty polygons (Wu, IPDPS 2001)
``mfp``   MFP    minimum faulty polygons (centralized, this paper)
``cmfp``  CMFP   minimum faulty polygons with the round emulation forced on
``dmfp``  DMFP   minimum faulty polygons, distributed construction
========  =====  ==========================================================

All specs share one uniform protocol::

    result = get_construction("mfp").build(scenario)           # FaultScenario
    result = get_construction("fb").build(faults, topology)    # raw fault set

with per-model knobs carried by typed, frozen option dataclasses
(:class:`MinimumPolygonOptions` etc.) so that option sets are hashable and
can key result caches.  Every build returns a :class:`ConstructionResult`
with the same fields regardless of model, which is what the
:class:`repro.api.MeshSession` cache, the :class:`repro.api.SweepExecutor`
and the CLI operate on.

The registry is open: call :func:`register_construction` with your own spec
to plug a new model into the session layer, the sweep executor and the CLI
at once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._registry import SpecRegistry, make_spec_options
from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons
from repro.core.raster import FaultRaster
from repro.core.regions import FaultRegion, mean_region_size
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.distributed.dmfp import build_minimum_polygons_distributed
from repro.faults.scenario import FaultScenario
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Mesh2D, Topology
from repro.types import Coord


# -- typed options ------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionOptions:
    """Base class for per-construction options.

    Options are frozen dataclasses so that a concrete option set is hashable
    and can key the per-session result cache.
    """

    def replace(self, **changes: Any) -> "ConstructionOptions":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class FaultyBlockOptions(ConstructionOptions):
    """Options of the rectangular faulty block construction (none yet)."""


@dataclass(frozen=True)
class SubMinimumOptions(ConstructionOptions):
    """Options of the sub-minimum polygon construction (none yet)."""


@dataclass(frozen=True)
class MinimumPolygonOptions(ConstructionOptions):
    """Options of the centralized minimum polygon construction.

    ``compute_rounds`` toggles the per-component labelling emulation that
    produces the CMFP round counts of Figure 11 (skippable for the Figure
    9/10 sweeps).  The build is the hull fill (Solution B); Solution A is
    the named reference
    :func:`repro.core.reference.build_minimum_polygons_via_labelling`.
    """

    compute_rounds: bool = True


@dataclass(frozen=True)
class CentralizedOptions(ConstructionOptions):
    """Options of the CMFP construction.

    CMFP is the centralized MFP with the round emulation always on (that is
    its purpose in Figure 11), so it deliberately exposes no knobs; use the
    ``mfp`` key for a configurable centralized build.
    """


@dataclass(frozen=True)
class DistributedOptions(ConstructionOptions):
    """Options of the distributed minimum polygon construction (none yet)."""


# -- uniform result -----------------------------------------------------------------


@dataclass
class ConstructionResult:
    """Uniform wrapper around one construction run.

    Whatever the model, the session layer and the executors only need the
    status grid, the final regions and the round count; ``raw`` keeps the
    model-specific construction object (e.g. the per-component polygons of
    the MFP construction) for callers that want the details.
    """

    key: str
    label: str
    grid: StatusGrid
    #: Final fault regions; a lazy :class:`~repro.core.regions.LazyList`,
    #: built on first access to a region.
    regions: Sequence[FaultRegion]
    rounds: int
    raw: Any
    options: ConstructionOptions
    #: Cell -> region-index grid (``-1`` outside every region) when the
    #: construction produced one; gives routers O(1) region membership.
    region_index: Any = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def num_regions(self) -> int:
        """Number of final fault regions."""
        return len(self.regions)

    @property
    def num_disabled_nonfaulty(self) -> int:
        """Non-faulty nodes disabled by the regions (Figure 9 quantity)."""
        return self.grid.num_disabled_nonfaulty

    @property
    def mean_region_size(self) -> float:
        """Average region size in nodes (Figure 10 quantity)."""
        return mean_region_size(self.grid, self.regions)

    def disabled_set(self) -> set:
        """Every node belonging to a fault region (faulty included)."""
        return self.grid.disabled_set()

    def metrics(self, num_faults: Optional[int] = None, label: Optional[str] = None):
        """Extract the figure scalars as a ``ConstructionMetrics`` record."""
        # Imported lazily: repro.sim imports this module at import time.
        from repro.sim.metrics import ConstructionMetrics

        return ConstructionMetrics(
            model=label if label is not None else self.label,
            num_faults=self.grid.num_faulty if num_faults is None else num_faults,
            num_regions=self.num_regions,
            disabled_nonfaulty=self.num_disabled_nonfaulty,
            mean_region_size=self.mean_region_size,
            rounds=self.rounds,
        )


# -- the spec -----------------------------------------------------------------------

#: A builder takes the fault set, the topology and a (validated) option set
#: and returns the model-specific construction object.  The fault set is a
#: :class:`~repro.core.raster.FaultRaster`, a sequence of ``(x, y)`` tuples.
Builder = Callable[[Sequence[Coord], Topology, ConstructionOptions], Any]

ScenarioOrFaults = Union[FaultScenario, FaultRaster, Sequence[Coord]]


def resolve_inputs(
    scenario: ScenarioOrFaults,
    topology: Optional[Topology] = None,
) -> Tuple[FaultRaster, Topology]:
    """Normalise the (scenario | faults | raster, topology) call styles.

    Returns the :class:`~repro.core.raster.FaultRaster` of the faults on
    the topology, and the topology.  A :class:`FaultScenario` or a raster
    brings its own topology unless an explicit one is given; a plain fault
    sequence defaults to the paper's 100x100 mesh.  A raster of the
    resolved topology is returned as it is, so builds that share it share
    its labellings.
    """
    if isinstance(scenario, FaultScenario):
        faults: Sequence[Coord] = scenario.faults
        if topology is None:
            topology = scenario.topology()
    else:
        faults = scenario
        if topology is None:
            topology = faults.topology if isinstance(faults, FaultRaster) else Mesh2D(100, 100)
    return FaultRaster.of(faults, topology), topology


@dataclass(frozen=True)
class ConstructionSpec:
    """One registered fault-region construction.

    ``builder`` implements the model; ``options_type`` declares its typed
    option dataclass.
    """

    key: str
    label: str
    description: str
    builder: Builder
    options_type: type = ConstructionOptions
    aliases: Tuple[str, ...] = ()

    def make_options(
        self,
        options: Optional[ConstructionOptions] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> ConstructionOptions:
        """Validate/construct the option set for one build call."""
        return make_spec_options("construction", self, options, overrides)

    def wrap(self, raw: Any, options: ConstructionOptions) -> ConstructionResult:
        """Wrap a model-specific construction object as a uniform result."""
        return ConstructionResult(
            key=self.key,
            label=self.label,
            grid=raw.grid,
            regions=raw.regions,
            rounds=raw.rounds,
            raw=raw,
            options=options,
            region_index=getattr(raw, "region_index", None),
        )

    def build(
        self,
        scenario: ScenarioOrFaults,
        topology: Optional[Topology] = None,
        *,
        options: Optional[ConstructionOptions] = None,
        **overrides: Any,
    ) -> ConstructionResult:
        """Run the construction with the uniform signature.

        *scenario* is a :class:`FaultScenario`, a fault sequence or a
        :class:`~repro.core.raster.FaultRaster`; the builder gets the
        raster (see :func:`resolve_inputs`).  Keyword *overrides* are field
        overrides of the spec's option type (e.g. ``compute_rounds=False``
        for ``mfp``).
        """
        raster, topology = resolve_inputs(scenario, topology)
        opts = self.make_options(options, overrides)
        return self.wrap(self.builder(raster, topology, opts), opts)


# -- the registry -------------------------------------------------------------------

_CONSTRUCTIONS = SpecRegistry("construction")
#: The registry's backing dicts (key -> spec, alias -> key), shared with
#: the :class:`SpecRegistry` instance; exposed for tests and diagnostics.
_REGISTRY: Dict[str, ConstructionSpec] = _CONSTRUCTIONS.specs
_ALIASES: Dict[str, str] = _CONSTRUCTIONS.aliases

_normalise = SpecRegistry.normalise


def register_construction(spec: ConstructionSpec, replace: bool = False) -> ConstructionSpec:
    """Register *spec* (and its aliases) in the global registry.

    Registration makes the model available to ``get_construction``, the
    :class:`repro.api.MeshSession`, the :class:`repro.api.SweepExecutor`
    and the CLI.  Raises ``ValueError`` on key collisions unless *replace*
    (which only licenses taking over *this* key, never another model's
    names).
    """
    return _CONSTRUCTIONS.register(spec, replace)


def get_construction(key: str) -> ConstructionSpec:
    """Look up a construction by key or alias (case-insensitive)."""
    return _CONSTRUCTIONS.get(key)


def available_constructions() -> List[ConstructionSpec]:
    """Return every registered spec, in registration order."""
    return _CONSTRUCTIONS.available()


def construction_keys() -> Tuple[str, ...]:
    """Return the registered construction keys, in registration order."""
    return _CONSTRUCTIONS.keys()


def build_construction(
    key: str,
    scenario: ScenarioOrFaults,
    topology: Optional[Topology] = None,
    *,
    options: Optional[ConstructionOptions] = None,
    **overrides: Any,
) -> ConstructionResult:
    """Convenience one-shot: ``get_construction(key).build(...)``."""
    return get_construction(key).build(
        scenario, topology, options=options, **overrides
    )


# -- built-in models ----------------------------------------------------------------


def _build_fb(faults, topology, options):
    return build_faulty_blocks(faults, topology=topology)


def _build_fp(faults, topology, options):
    return build_sub_minimum_polygons(faults, topology=topology)


def _build_mfp(faults, topology, options):
    return build_minimum_polygons(
        faults, topology=topology, compute_rounds=options.compute_rounds
    )


def _build_cmfp(faults, topology, options):
    # CMFP is the centralized MFP with the round emulation always on: the
    # label exists so Figure 11 can compare its rounds against DMFP.
    return build_minimum_polygons(
        faults,
        topology=topology,
        compute_rounds=True,
    )


def _build_dmfp(faults, topology, options):
    return build_minimum_polygons_distributed(faults, topology=topology)


register_construction(
    ConstructionSpec(
        key="fb",
        label="FB",
        description="rectangular faulty blocks (labelling scheme 1)",
        builder=_build_fb,
        options_type=FaultyBlockOptions,
        aliases=("faulty-block", "faulty-blocks", "block"),
    )
)
register_construction(
    ConstructionSpec(
        key="fp",
        label="FP",
        description="sub-minimum faulty polygons (Wu, IPDPS 2001)",
        builder=_build_fp,
        options_type=SubMinimumOptions,
        aliases=("sub-minimum", "sub-minimum-polygons"),
    )
)
register_construction(
    ConstructionSpec(
        key="mfp",
        label="MFP",
        description="minimum faulty polygons (centralized construction)",
        builder=_build_mfp,
        options_type=MinimumPolygonOptions,
        aliases=("minimum-polygon", "minimum-polygons"),
    )
)
register_construction(
    ConstructionSpec(
        key="cmfp",
        label="CMFP",
        description="centralized minimum faulty polygons with round emulation",
        builder=_build_cmfp,
        options_type=CentralizedOptions,
        aliases=("centralized-mfp",),
    )
)
register_construction(
    ConstructionSpec(
        key="dmfp",
        label="DMFP",
        description="minimum faulty polygons (distributed construction)",
        builder=_build_dmfp,
        options_type=DistributedOptions,
        aliases=("distributed", "distributed-mfp"),
    )
)
