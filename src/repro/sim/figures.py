"""Regeneration of the paper's evaluation figures as data series.

The paper's Figures 9-11 each have two panels (random / clustered fault
distribution) and plot one curve per fault model against the number of
injected faults.  The functions here produce those curves as plain data
(:class:`FigureSeries`), so the benchmark harness can print the same
rows/series the paper reports and EXPERIMENTS.md can record
paper-vs-measured values without any plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.experiments import run_latency_sweep, run_routing_sweep, run_sweep
from repro.sim.metrics import LatencySweepPoint, RoutingSweepPoint, SweepPoint

#: Fault counts used by the paper's sweep (0 is omitted: it is trivially 0).
DEFAULT_FAULT_COUNTS: Sequence[int] = (100, 200, 300, 400, 500, 600, 700, 800)


@dataclass
class FigureSeries:
    """One figure panel: x values plus one named series per fault model."""

    figure: str
    distribution: str
    x_label: str
    y_label: str
    x_values: List[int]
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: Header of the x column in :meth:`as_rows` (fault sweeps keep the
    #: historical "faults"; the latency sweeps use "load").
    x_key: str = "faults"
    #: Optional per-model 95% confidence half-widths (campaign-scale
    #: sweeps populate these; empty means point estimates only).
    errors: Dict[str, List[float]] = field(default_factory=dict)

    def value(self, model: str, num_faults: int) -> float:
        """Return the y value of *model* at *num_faults*."""
        index = self.x_values.index(num_faults)
        return self.series[model][index]

    def error(self, model: str, num_faults: int) -> float:
        """The 95% half-width of *model* at *num_faults* (0.0 if absent)."""
        if model not in self.errors:
            return 0.0
        return self.errors[model][self.x_values.index(num_faults)]

    def as_rows(self) -> List[List[str]]:
        """Render the panel as table rows (header row first).

        Models with recorded confidence intervals render as
        ``mean±half``; the historical plain format is untouched when no
        errors are attached.
        """
        header = [self.x_key] + list(self.series)
        rows = [header]
        for index, x in enumerate(self.x_values):
            row = [str(x)]
            for model in self.series:
                cell = f"{self.series[model][index]:.2f}"
                if model in self.errors:
                    cell += f"±{self.errors[model][index]:.2f}"
                row.append(cell)
            rows.append(row)
        return rows


def figure9_series(
    distribution: str = "random",
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    trials: int = 3,
    width: int = 100,
    base_seed: int = 0,
    log10: bool = True,
    points: Optional[List[SweepPoint]] = None,
    workers: int = 1,
    ci: bool = False,
) -> FigureSeries:
    """Figure 9: non-faulty but disabled nodes in the whole network.

    The paper plots the value on a log10 axis; set ``log10=False`` for the
    raw node counts.  Pass precomputed ``points`` to reuse one sweep for
    several figures.  ``ci=True`` attaches 95% confidence half-widths
    (raw scale only -- half-widths do not transform through log10).
    """
    if points is None:
        points = run_sweep(
            fault_counts=fault_counts, trials=trials, width=width,
            distribution=distribution, base_seed=base_seed,
            include_distributed=False, include_rounds=False, workers=workers,
        )
    figure = FigureSeries(
        figure="9a" if distribution == "random" else "9b",
        distribution=distribution,
        x_label="Number of faulty nodes",
        y_label="# of disabled nodes (log10)" if log10 else "# of disabled nodes",
        x_values=[p.num_faults for p in points],
    )
    for model in ("FB", "FP", "MFP"):
        values = []
        for point in points:
            value = point.mean_disabled_nonfaulty(model)
            if log10:
                value = math.log10(value) if value > 0 else -1.0
            values.append(value)
        figure.series[model] = values
        if ci and not log10:
            figure.errors[model] = [
                p.ci95(model, "disabled_nonfaulty")[1] for p in points
            ]
    return figure


def figure10_series(
    distribution: str = "random",
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    trials: int = 3,
    width: int = 100,
    base_seed: int = 0,
    points: Optional[List[SweepPoint]] = None,
    workers: int = 1,
    ci: bool = False,
) -> FigureSeries:
    """Figure 10: average size of a fault region (faulty + non-faulty nodes)."""
    if points is None:
        points = run_sweep(
            fault_counts=fault_counts, trials=trials, width=width,
            distribution=distribution, base_seed=base_seed,
            include_distributed=False, include_rounds=False, workers=workers,
        )
    figure = FigureSeries(
        figure="10a" if distribution == "random" else "10b",
        distribution=distribution,
        x_label="Number of faulty nodes",
        y_label="Size of fault block/polygon",
        x_values=[p.num_faults for p in points],
    )
    for model in ("FB", "FP", "MFP"):
        figure.series[model] = [p.mean_region_size(model) for p in points]
        if ci:
            figure.errors[model] = [
                p.ci95(model, "mean_region_size")[1] for p in points
            ]
    return figure


def figure11_series(
    distribution: str = "random",
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    trials: int = 3,
    width: int = 100,
    base_seed: int = 0,
    points: Optional[List[SweepPoint]] = None,
    workers: int = 1,
    ci: bool = False,
) -> FigureSeries:
    """Figure 11: rounds of status determination (FB, FP, CMFP, DMFP)."""
    if points is None:
        points = run_sweep(
            fault_counts=fault_counts, trials=trials, width=width,
            distribution=distribution, base_seed=base_seed,
            include_distributed=True, include_rounds=True, workers=workers,
        )
    figure = FigureSeries(
        figure="11a" if distribution == "random" else "11b",
        distribution=distribution,
        x_label="Number of faulty nodes",
        y_label="Average # of rounds",
        x_values=[p.num_faults for p in points],
    )
    for model in ("FB", "FP", "CMFP", "DMFP"):
        figure.series[model] = [p.mean_rounds(model) for p in points]
        if ci:
            figure.errors[model] = [p.ci95(model, "rounds")[1] for p in points]
    return figure


#: Routing-series metrics -> (RoutingSweepPoint accessor, y-axis label).
ROUTING_METRICS: Dict[str, tuple] = {
    "delivery_rate": ("mean_delivery_rate", "Delivery rate"),
    "mean_hops": ("mean_hops", "Mean hops per delivered message"),
    "mean_detour": ("mean_detour", "Mean detour (extra hops)"),
    "abnormal_fraction": ("mean_abnormal_fraction", "Fraction of abnormal routes"),
    "enabled": ("mean_enabled", "Usable endpoint nodes"),
}


def routing_series(
    metric: str = "delivery_rate",
    distribution: str = "clustered",
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    trials: int = 2,
    width: int = 100,
    base_seed: int = 0,
    traffic: str = "uniform",
    router: str = "extended-ecube",
    messages: int = 500,
    torus: bool = False,
    points: Optional[List[RoutingSweepPoint]] = None,
    workers: int = 1,
    ci: bool = False,
) -> FigureSeries:
    """Routing extension: one routing *metric* per fault model vs. fault count.

    Not a figure of the paper, but its motivation (Sections 1-2) measured:
    how the fault-region model affects the routing layer under a synthetic
    *traffic* workload.  Pass precomputed ``points`` (from
    :func:`repro.sim.experiments.run_routing_sweep`) to reuse one sweep
    for several metrics.
    """
    try:
        accessor, y_label = ROUTING_METRICS[metric]
    except KeyError:
        known = ", ".join(sorted(ROUTING_METRICS))
        raise KeyError(f"unknown routing metric {metric!r}; known: {known}") from None
    if points is None:
        points = run_routing_sweep(
            fault_counts=fault_counts,
            trials=trials,
            width=width,
            distribution=distribution,
            base_seed=base_seed,
            traffic=traffic,
            router=router,
            messages=messages,
            torus=torus,
            workers=workers,
        )
    figure = FigureSeries(
        figure=f"routing/{metric} ({traffic})",
        distribution=distribution,
        x_label="Number of faulty nodes",
        y_label=y_label,
        x_values=[p.num_faults for p in points],
    )
    models = points[0].models() if points else []
    for model in models:
        figure.series[model] = [getattr(p, accessor)(model) for p in points]
        if ci:
            figure.errors[model] = [p.ci95(model, metric)[1] for p in points]
    return figure


#: Latency-series metrics -> (LatencySweepPoint accessor, y-axis label).
LATENCY_METRICS: Dict[str, tuple] = {
    "mean_latency": ("mean_latency", "Mean latency (cycles)"),
    "mean_queueing": ("mean_queueing", "Mean queueing delay (cycles)"),
    "accepted_load": ("mean_accepted_load", "Accepted load (messages/node/cycle)"),
    "saturated": ("saturated_fraction", "Fraction of saturated runs"),
    "deadlocked": ("deadlocked_fraction", "Fraction of deadlocked runs"),
}

#: Offered loads of the default latency-vs-load sweep (messages/node/cycle).
DEFAULT_LOADS: Sequence[float] = (0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32)


def latency_series(
    metric: str = "mean_latency",
    distribution: str = "clustered",
    loads: Sequence[float] = DEFAULT_LOADS,
    trials: int = 2,
    num_faults: int = 0,
    width: int = 16,
    base_seed: int = 0,
    traffic: str = "uniform",
    arrival: str = "poisson",
    router: str = "extended-ecube",
    cycles: int = 256,
    torus: bool = False,
    points: Optional[List[LatencySweepPoint]] = None,
    workers: int = 1,
    ci: bool = False,
) -> FigureSeries:
    """Network-simulator extension: one contention *metric* vs. offered load.

    The latency-vs-load plot is the standard interconnect evaluation the
    paper's contention-free statistics cannot produce; the curve is flat
    near zero load (pure hop latency), rises with queueing delay and blows
    up past the saturation throughput.  Pass precomputed ``points`` (from
    :func:`repro.sim.experiments.run_latency_sweep`) to reuse one sweep
    for several metrics.
    """
    try:
        accessor, y_label = LATENCY_METRICS[metric]
    except KeyError:
        known = ", ".join(sorted(LATENCY_METRICS))
        raise KeyError(f"unknown latency metric {metric!r}; known: {known}") from None
    if points is None:
        points = run_latency_sweep(
            loads=loads,
            trials=trials,
            num_faults=num_faults,
            width=width,
            distribution=distribution,
            base_seed=base_seed,
            traffic=traffic,
            arrival=arrival,
            router=router,
            cycles=cycles,
            torus=torus,
            workers=workers,
        )
    figure = FigureSeries(
        figure=f"netsim/{metric} ({traffic}/{arrival})",
        distribution=distribution,
        x_label="Offered load (messages/node/cycle)",
        y_label=y_label,
        x_values=[p.load for p in points],
        x_key="load",
    )
    models = points[0].models() if points else []
    for model in models:
        figure.series[model] = [getattr(p, accessor)(model) for p in points]
        if ci:
            figure.errors[model] = [p.ci95(model, metric)[1] for p in points]
    return figure


def format_series_table(figure: FigureSeries) -> str:
    """Render a :class:`FigureSeries` as an aligned text table."""
    rows = figure.as_rows()
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = [
        f"Figure {figure.figure} ({figure.distribution} fault distribution)",
        f"y: {figure.y_label}",
    ]
    for row_index, row in enumerate(rows):
        line = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        lines.append(line)
        if row_index == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)
