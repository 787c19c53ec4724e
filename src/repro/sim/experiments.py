"""Running the paper's constructions over fault scenarios.

Thin compatibility layer over :mod:`repro.api`: ``compare_constructions``
runs the registered constructions (FB, FP, MFP/CMFP and optionally DMFP)
on one fault pattern via the construction registry, ``run_sweep``
delegates the fault-count sweep -- exactly the shape of the paper's
simulation ("faults are sequentially added", "a simulation has been
conducted in a 100x100 mesh ... the number of faults is no more than 800")
-- to :class:`repro.api.SweepExecutor`, which can fan trials out over
worker processes, and ``run_routing_sweep`` does the same for the routing
extension: every trial routes one synthetic traffic batch (see
:mod:`repro.routing.traffic`) over each model's regions.
``run_latency_sweep`` adds the open-loop axis on top: every trial replays
a timed batch through the contention simulator of :mod:`repro.netsim`,
producing the classic latency-vs-offered-load curve.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.api.executor import (
    DEFAULT_MODELS,
    SweepExecutor,
    collect_scenario_metrics,
)
from repro.faults.scenario import FaultScenario
from repro.sim.metrics import (
    LatencySweepPoint,
    RoutingSweepPoint,
    ScenarioMetrics,
    SweepPoint,
)


def _model_keys(include_distributed: bool) -> tuple:
    if include_distributed:
        return DEFAULT_MODELS
    return tuple(key for key in DEFAULT_MODELS if key != "dmfp")


def compare_constructions(
    scenario: FaultScenario,
    include_distributed: bool = True,
    include_rounds: bool = True,
) -> ScenarioMetrics:
    """Run every fault-region construction on one scenario.

    Parameters
    ----------
    scenario:
        The fault pattern (and topology) to run on.
    include_distributed:
        Also run the distributed MFP construction (DMFP); needed for the
        Figure 11 rounds comparison, skippable for the Figure 9/10 sweeps.
    include_rounds:
        Whether the centralized MFP should compute its round emulation
        (CMFP); disable to speed up the Figure 9/10 sweeps.
    """
    return collect_scenario_metrics(
        scenario,
        models=_model_keys(include_distributed),
        include_rounds=include_rounds,
    )


def run_sweep(
    fault_counts: Sequence[int],
    trials: int = 3,
    include_distributed: bool = True,
    workers: Optional[int] = 1,
    campaign=None,
    **params: Any,
) -> List[SweepPoint]:
    """Run the constructions over a fault-count sweep.

    Returns one :class:`SweepPoint` per entry of *fault_counts*, each
    averaging *trials* independently seeded scenarios.  All constructions
    inside a trial share the same fault pattern (paired comparison).  Pass
    ``workers`` > 1 (or ``None`` for all CPUs) to fan the trials out over a
    process pool; the per-trial seeds are deterministic either way.
    *params* (``width``, ``distribution``, ``base_seed``, ``torus``, ...)
    are those of :meth:`repro.api.SweepExecutor.iter_plan`, with the
    defaults of :class:`~repro.api.executor.TrialSpec`.
    ``campaign=<directory>`` streams the sweep through the resumable
    content-addressed campaign store (see :mod:`repro.campaign`).
    """
    executor = SweepExecutor(
        models=_model_keys(include_distributed), workers=workers
    )
    return executor.run(fault_counts, trials, campaign=campaign, **params)


def run_routing_sweep(
    fault_counts: Sequence[int],
    trials: int = 3,
    models: Optional[Sequence[str]] = None,
    workers: Optional[int] = 1,
    reducer=None,
    campaign=None,
    **params: Any,
) -> List[RoutingSweepPoint]:
    """Route synthetic traffic over a fault-count sweep.

    Returns one :class:`~repro.sim.metrics.RoutingSweepPoint` per entry of
    *fault_counts*.  Every trial builds *models* (construction registry
    keys; default ``DEFAULT_ROUTING_MODELS``) on one generated fault
    pattern and routes the same seeded ``traffic`` batch (traffic registry
    key) through ``router`` (router registry key) over each -- the paired
    comparison of the routing ablation, generalised to the whole synthetic
    workload suite.  *params* are the fields of
    :class:`~repro.api.executor.RoutingTrialSpec` plus ``base_seed``.
    Like :func:`run_sweep`, trials fan out over ``workers`` processes with
    deterministic per-trial seeds.  ``engine`` picks the routing engine
    (``"scalar"`` / ``"batch"`` / ``"auto"``; ``None`` means ``auto``)
    -- the engines are bit-identical, so the choice only
    affects the sweep's wall-clock time.
    """
    executor = SweepExecutor(models=models, workers=workers)
    return executor.run(
        fault_counts, trials, kind="routing", reducer=reducer, campaign=campaign, **params
    )


def run_latency_sweep(
    loads: Sequence[float],
    trials: int = 2,
    models: Optional[Sequence[str]] = None,
    workers: Optional[int] = 1,
    reducer=None,
    campaign=None,
    **params: Any,
) -> List[LatencySweepPoint]:
    """Run an open-loop latency-vs-load sweep over the network simulator.

    Returns one :class:`~repro.sim.metrics.LatencySweepPoint` per entry of
    *loads* (offered messages per node per cycle).  Every trial generates
    one fault pattern at ``num_faults``, builds *models* (default
    ``DEFAULT_NETSIM_MODELS``) on it and replays a timed traffic batch
    (``traffic`` endpoints, ``arrival`` injection times) through the
    contention simulator -- the paper-standard interconnect evaluation
    the contention-free routing sweeps cannot produce.  *params* are the
    fields of :class:`~repro.api.executor.NetSimTrialSpec` plus
    ``base_seed``.  Like the other sweeps, trials fan out over
    ``workers`` processes with deterministic seeds; ``sim`` picks the
    simulator (``"array"`` / ``"scalar"`` / ``"auto"``; ``None`` means
    ``auto``), which never affects the results -- the simulators
    are bit-identical.
    """
    executor = SweepExecutor(models=models, workers=workers)
    return executor.run(
        loads, trials, kind="latency", reducer=reducer, campaign=campaign, **params
    )
