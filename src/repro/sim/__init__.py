"""Experiment harness reproducing the paper's evaluation (Section 4).

The sweeps themselves run on :class:`repro.api.SweepExecutor` (one
scenario: :func:`repro.api.collect_scenario_metrics`); this package holds
what they produce and how it is shown.

* :mod:`repro.sim.metrics` -- the per-model records of every trial kind
  (construction, routing, netsim), one :class:`ScenarioMetrics` per trial
  and one :class:`SweepPoint` per axis value.
* :mod:`repro.sim.figures` -- formats sweep points as the data series behind
  Figures 9, 10 and 11 (both fault-distribution panels each) and the
  routing / latency series of the extensions, rendered as text tables.
"""

from repro.sim.metrics import (
    ConstructionMetrics,
    RoutingMetrics,
    ScenarioMetrics,
    SweepPoint,
)
from repro.sim.figures import (
    FigureSeries,
    figure9_series,
    figure10_series,
    figure11_series,
    format_series_table,
    routing_series,
)
from repro.sim.render import render_ascii_chart, render_comparison_summary
from repro.sim.registry import (
    EXPERIMENTS,
    Experiment,
    extension_experiments,
    get_experiment,
    paper_experiments,
)

__all__ = [
    "ConstructionMetrics",
    "ScenarioMetrics",
    "SweepPoint",
    "RoutingMetrics",
    "FigureSeries",
    "figure9_series",
    "figure10_series",
    "figure11_series",
    "routing_series",
    "format_series_table",
    "render_ascii_chart",
    "render_comparison_summary",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "paper_experiments",
    "extension_experiments",
]
