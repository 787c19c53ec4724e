"""The paper's fault-region constructions.

This subpackage contains the three fault-region models compared in the
paper's evaluation and the machinery shared between them:

* :mod:`repro.core.labelling` -- labelling scheme 1 (growing) and labelling
  scheme 2 (shrinking) as synchronous fixed-point iterations with round
  counting.
* :mod:`repro.core.faulty_block` -- the classic rectangular faulty block
  model (FB).
* :mod:`repro.core.sub_minimum` -- Wu's sub-minimum faulty polygon model
  (FP) [IPDPS 2001].
* :mod:`repro.core.components` -- the merge process grouping faults into
  8-adjacent components (phase 1 of the paper's solution).
* :mod:`repro.core.raster` -- one validated fault mask per topology whose
  scheme-1 labelling and component table every construction shares.
* :mod:`repro.core.mfp` -- the minimum faulty polygon model (MFP): both
  centralized solutions from Section 3.1 and the superseding rule.
* :mod:`repro.core.regions` -- extraction of disjoint fault regions and the
  per-region statistics used by the evaluation figures.
* :mod:`repro.core.reference` -- set-based reference builds of every
  construction, which the differential tests call by name.
"""

from repro.core.labelling import (
    LabellingResult,
    apply_labelling_scheme_1,
    apply_labelling_scheme_2,
)
from repro.core.components import FaultComponent, find_components
from repro.core.raster import FaultRaster
from repro.core.faulty_block import FaultyBlockConstruction, build_faulty_blocks
from repro.core.sub_minimum import SubMinimumConstruction, build_sub_minimum_polygons
from repro.core.mfp import (
    MinimumPolygonConstruction,
    build_minimum_polygons,
    component_minimum_polygon,
)
from repro.core.regions import FaultRegion, extract_regions
from repro.core.superseding import pile_statuses
from repro.core.verify import (
    VerificationReport,
    compare_constructions_report,
    verify_coverage,
    verify_faulty_blocks,
    verify_minimality,
    verify_orthogonal_convexity,
)

__all__ = [
    "VerificationReport",
    "verify_coverage",
    "verify_faulty_blocks",
    "verify_orthogonal_convexity",
    "verify_minimality",
    "compare_constructions_report",
    "LabellingResult",
    "apply_labelling_scheme_1",
    "apply_labelling_scheme_2",
    "FaultComponent",
    "find_components",
    "FaultRaster",
    "FaultyBlockConstruction",
    "build_faulty_blocks",
    "SubMinimumConstruction",
    "build_sub_minimum_polygons",
    "MinimumPolygonConstruction",
    "build_minimum_polygons",
    "component_minimum_polygon",
    "FaultRegion",
    "extract_regions",
    "pile_statuses",
]
