"""Running the paper's constructions over fault scenarios.

Thin layer over :mod:`repro.api`: ``compare_constructions`` runs the
registered constructions (FB, FP, MFP/CMFP and optionally DMFP) on one
fault pattern via the construction registry, and ``run_sweep`` delegates
the fault-count sweep -- exactly the shape of the paper's simulation
("faults are sequentially added", "a simulation has been conducted in a
100x100 mesh ... the number of faults is no more than 800") -- to
:class:`repro.api.SweepExecutor`, which can fan trials out over worker
processes.  Routing and latency sweeps are ``SweepExecutor.run(...,
kind="routing" | "latency")``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.api.executor import (
    DEFAULT_MODELS,
    SweepExecutor,
    collect_scenario_metrics,
)
from repro.faults.scenario import FaultScenario
from repro.sim.metrics import ScenarioMetrics, SweepPoint


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
