"""repro -- Minimum Orthogonal Convex Polygons in 2-D Faulty Meshes.

A faithful, self-contained reproduction of

    Jie Wu and Zhen Jiang,
    "On Constructing the Minimum Orthogonal Convex Polygon in 2-D Faulty
    Meshes", Proc. 18th International Parallel and Distributed Processing
    Symposium (IPDPS), 2004.

The package provides the three fault-region models the paper compares
(rectangular faulty blocks, sub-minimum faulty polygons, minimum faulty
polygons), both centralized solutions and the distributed solution for the
minimum polygons, the fault-injection models and mesh substrate they run
on, the extended e-cube routing application, and the experiment harness
that regenerates the paper's Figures 9-11.

The canonical public surface is :mod:`repro.api`: a construction registry
(string keys ``"fb"``/``"fp"``/``"mfp"``/``"cmfp"``/``"dmfp"`` with one
uniform build protocol), the incremental :class:`~repro.api.MeshSession`,
its routing facade (router registry ``"ecube"``/``"extended-ecube"`` plus
the synthetic traffic registry ``"uniform"``/``"transpose"``/
``"bit-reversal"``/``"hotspot"``/``"nearest-neighbour"``/``"permutation"``,
all reachable via ``session.route(...)``) and the parallel
:class:`~repro.api.SweepExecutor` for construction and routing sweeps.

Quickstart
----------

>>> from repro import MeshSession, generate_scenario
>>> scenario = generate_scenario(num_faults=60, width=40, model="clustered", seed=7)
>>> session = MeshSession.from_scenario(scenario)
>>> fb = session.build("fb")
>>> mfp = session.build("mfp")
>>> mfp.num_disabled_nonfaulty <= fb.num_disabled_nonfaulty
True

The model-specific construction functions (``build_faulty_blocks`` and
friends) live in their own modules (:mod:`repro.core`,
:mod:`repro.distributed`); the construction registry calls them.
"""

from repro.types import (
    ActivityLabel,
    Coord,
    FaultRegionModel,
    MessageType,
    NodeKind,
    Orientation,
    SafetyLabel,
    Side,
)
from repro.mesh import Mesh2D, StatusGrid, Torus2D
from repro.geometry import (
    Rectangle,
    boundary_ring,
    bounding_rectangle,
    concave_column_sections,
    concave_row_sections,
    concave_sections,
    is_orthogonal_convex,
    orthogonal_convex_hull,
)
from repro.faults import (
    ClusteredFaultModel,
    FaultScenario,
    RandomFaultModel,
    derive_trial_seed,
    generate_scenario,
    make_fault_model,
    sweep_scenarios,
)
from repro.core import (
    FaultComponent,
    FaultRegion,
    FaultyBlockConstruction,
    MinimumPolygonConstruction,
    SubMinimumConstruction,
    apply_labelling_scheme_1,
    apply_labelling_scheme_2,
    extract_regions,
    find_components,
)
from repro.distributed import (
    DistributedMinimumPolygonConstruction,
    construct_boundary_ring,
)
from repro.routing import (
    ECubeRouter,
    ExtendedECubeRouter,
    RoutingStats,
    ecube_path,
)
from repro.sim import (
    FigureSeries,
    figure9_series,
    figure10_series,
    figure11_series,
    format_series_table,
    routing_series,
)
from repro import api
from repro.api import (
    ConstructionResult,
    ConstructionSpec,
    MeshSession,
    RouterSpec,
    RoutingSession,
    SweepExecutor,
    TrafficSpec,
    available_constructions,
    available_routers,
    available_traffic,
    get_construction,
    get_router,
    get_traffic,
    register_construction,
    register_router,
    register_traffic,
)

__version__ = "1.1.0"

__all__ = [
    # types
    "Coord",
    "NodeKind",
    "SafetyLabel",
    "ActivityLabel",
    "Side",
    "Orientation",
    "MessageType",
    "FaultRegionModel",
    # mesh
    "Mesh2D",
    "Torus2D",
    "StatusGrid",
    # geometry
    "Rectangle",
    "bounding_rectangle",
    "is_orthogonal_convex",
    "orthogonal_convex_hull",
    "concave_row_sections",
    "concave_column_sections",
    "concave_sections",
    "boundary_ring",
    # faults
    "RandomFaultModel",
    "ClusteredFaultModel",
    "make_fault_model",
    "FaultScenario",
    "generate_scenario",
    "sweep_scenarios",
    "derive_trial_seed",
    # canonical API
    "api",
    "MeshSession",
    "RoutingSession",
    "SweepExecutor",
    "ConstructionSpec",
    "ConstructionResult",
    "RouterSpec",
    "TrafficSpec",
    "get_construction",
    "available_constructions",
    "register_construction",
    "get_router",
    "available_routers",
    "register_router",
    "get_traffic",
    "available_traffic",
    "register_traffic",
    # core constructions (result types and analysis helpers)
    "apply_labelling_scheme_1",
    "apply_labelling_scheme_2",
    "find_components",
    "FaultComponent",
    "FaultRegion",
    "extract_regions",
    "FaultyBlockConstruction",
    "SubMinimumConstruction",
    "MinimumPolygonConstruction",
    # distributed
    "DistributedMinimumPolygonConstruction",
    "construct_boundary_ring",
    # routing
    "ecube_path",
    "ECubeRouter",
    "ExtendedECubeRouter",
    "RoutingStats",
    # simulation harness
    "FigureSeries",
    "figure9_series",
    "figure10_series",
    "figure11_series",
    "routing_series",
    "format_series_table",
    "__version__",
]
