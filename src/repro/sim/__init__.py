"""Experiment harness reproducing the paper's evaluation (Section 4).

* :mod:`repro.sim.metrics` -- per-scenario metric records comparing the
  FB / FP / MFP constructions, plus their routing-sweep counterparts.
* :mod:`repro.sim.experiments` -- runs all constructions on one scenario or
  on a fault-count sweep.
* :mod:`repro.sim.figures` -- formats sweep points as the data series behind
  Figures 9, 10 and 11 (both fault-distribution panels each) and the
  routing / latency series of the extensions, rendered as text tables.
"""

from repro.sim.metrics import (
    ConstructionMetrics,
    RoutingMetrics,
    RoutingScenarioMetrics,
    RoutingSweepPoint,
    ScenarioMetrics,
    SweepPoint,
)
from repro.sim.experiments import compare_constructions, run_sweep
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
    "RoutingScenarioMetrics",
    "RoutingSweepPoint",
    "compare_constructions",
    "run_sweep",
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
