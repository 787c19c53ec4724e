"""Pluggable registry of fault-region constructions.

Every fault-region model of the paper (and any future model) registers a
:class:`ConstructionSpec` under a short string key:

========  =====  ==========================================================
key       label  construction
========  =====  ==========================================================
``fb``    FB     rectangular faulty blocks (labelling scheme 1)
``fp``    FP     sub-minimum faulty polygons (Wu, IPDPS 2001)
``mfp``   MFP    minimum faulty polygons (centralized, this paper)
``cmfp``  CMFP   the ``mfp`` build, reported for its emulation rounds
``dmfp``  DMFP   minimum faulty polygons, distributed construction
========  =====  ==========================================================

All specs share one uniform protocol::

    result = get_construction("mfp").build(scenario)           # FaultScenario
    result = get_construction("fb").build(faults, topology)    # raw fault set

A construction takes no options, so the key alone names a build and keys
the :class:`repro.api.MeshSession` result cache.  Every build returns a
:class:`ConstructionResult` with the same fields regardless of model,
which is what that cache, the :class:`repro.api.SweepExecutor` and the
CLI operate on.

The registry is open: call :func:`register_construction` with your own spec
to plug a new model into the session layer, the sweep executor and the CLI
at once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro._registry import SpecRegistry
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
    raw: Any
    #: Cell -> region-index grid (``-1`` outside every region) when the
    #: construction produced one; gives routers O(1) region membership.
    region_index: Any = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def rounds(self) -> int:
        """The construction's round count, read from ``raw`` (MFP and CMFP
        run their labelling emulation on the first read)."""
        return self.raw.rounds

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

#: A builder takes the fault set and the topology and returns the
#: model-specific construction object.  The fault set is a
#: :class:`~repro.core.raster.FaultRaster`, a sequence of ``(x, y)`` tuples.
Builder = Callable[[Sequence[Coord], Topology], Any]

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
    """One registered fault-region construction; ``builder`` implements
    the model."""

    key: str
    label: str
    description: str
    builder: Builder
    aliases: Tuple[str, ...] = ()

    def wrap(self, raw: Any) -> ConstructionResult:
        """Wrap a model-specific construction object as a uniform result."""
        return ConstructionResult(
            key=self.key,
            label=self.label,
            grid=raw.grid,
            regions=raw.regions,
            raw=raw,
            region_index=getattr(raw, "region_index", None),
        )

    def build(
        self, scenario: ScenarioOrFaults, topology: Optional[Topology] = None
    ) -> ConstructionResult:
        """Run the construction with the uniform signature.

        *scenario* is a :class:`FaultScenario`, a fault sequence or a
        :class:`~repro.core.raster.FaultRaster`; the builder gets the
        raster (see :func:`resolve_inputs`).
        """
        raster, topology = resolve_inputs(scenario, topology)
        return self.wrap(self.builder(raster, topology))


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
    key: str, scenario: ScenarioOrFaults, topology: Optional[Topology] = None
) -> ConstructionResult:
    """Convenience one-shot: ``get_construction(key).build(...)``."""
    return get_construction(key).build(scenario, topology)


# -- built-in models ----------------------------------------------------------------


def _build_fb(faults, topology):
    return build_faulty_blocks(faults, topology=topology)


def _build_fp(faults, topology):
    return build_sub_minimum_polygons(faults, topology=topology)


def _build_mfp(faults, topology):
    # Also CMFP's builder: the label exists so Figure 11 can compare the
    # centralized emulation rounds against DMFP's.
    return build_minimum_polygons(faults, topology=topology)


def _build_dmfp(faults, topology):
    return build_minimum_polygons_distributed(faults, topology=topology)


register_construction(
    ConstructionSpec(
        key="fb",
        label="FB",
        description="rectangular faulty blocks (labelling scheme 1)",
        builder=_build_fb,
        aliases=("faulty-block", "faulty-blocks", "block"),
    )
)
register_construction(
    ConstructionSpec(
        key="fp",
        label="FP",
        description="sub-minimum faulty polygons (Wu, IPDPS 2001)",
        builder=_build_fp,
        aliases=("sub-minimum", "sub-minimum-polygons"),
    )
)
register_construction(
    ConstructionSpec(
        key="mfp",
        label="MFP",
        description="minimum faulty polygons (centralized construction)",
        builder=_build_mfp,
        aliases=("minimum-polygon", "minimum-polygons"),
    )
)
register_construction(
    ConstructionSpec(
        key="cmfp",
        label="CMFP",
        description="centralized minimum faulty polygons with round emulation",
        builder=_build_mfp,
        aliases=("centralized-mfp",),
    )
)
register_construction(
    ConstructionSpec(
        key="dmfp",
        label="DMFP",
        description="minimum faulty polygons (distributed construction)",
        builder=_build_dmfp,
        aliases=("distributed", "distributed-mfp"),
    )
)
