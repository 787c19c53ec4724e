"""Regeneration of the paper's evaluation figures as data series.

The paper's Figures 9-11 each have two panels (random / clustered fault
distribution) and plot one curve per fault model against the number of
injected faults.  The functions here format the points of a sweep
(``SweepExecutor.run`` or a campaign's ``sweep_points()``) as those
curves, plain data (:class:`FigureSeries`) that the benchmark harness and
the CLI print as tables without any plotting dependency.  Every label a
panel shows (distribution, traffic, arrival process) is read from the
points, so a figure always names the sweep that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

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


def _first(points: Sequence[Any]) -> Any:
    """The sweep's first point: its trials carry the sweep-wide labels."""
    if not points:
        raise ValueError("a figure needs at least one sweep point")
    return points[0]


def _paper_panel(
    number: str, y_label: str, points: Sequence[SweepPoint]
) -> FigureSeries:
    """An empty Figure 9/10/11 panel over the fault counts of *points*."""
    distribution = _first(points).distribution
    return FigureSeries(
        figure=number + ("a" if distribution == "random" else "b"),
        distribution=distribution,
        x_label="Number of faulty nodes",
        y_label=y_label,
        x_values=[p.num_faults for p in points],
    )


def figure9_series(
    points: Sequence[SweepPoint], log10: bool = True, ci: bool = False
) -> FigureSeries:
    """Figure 9: non-faulty but disabled nodes in the whole network.

    The paper plots the value on a log10 axis; set ``log10=False`` for the
    raw node counts.  ``ci=True`` attaches 95% confidence half-widths
    (raw scale only -- half-widths do not transform through log10).
    """
    figure = _paper_panel(
        "9", "# of disabled nodes (log10)" if log10 else "# of disabled nodes", points
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


def figure10_series(points: Sequence[SweepPoint], ci: bool = False) -> FigureSeries:
    """Figure 10: average size of a fault region (faulty + non-faulty nodes)."""
    figure = _paper_panel("10", "Size of fault block/polygon", points)
    for model in ("FB", "FP", "MFP"):
        figure.series[model] = [p.mean_region_size(model) for p in points]
        if ci:
            figure.errors[model] = [
                p.ci95(model, "mean_region_size")[1] for p in points
            ]
    return figure


def figure11_series(points: Sequence[SweepPoint], ci: bool = False) -> FigureSeries:
    """Figure 11: rounds of status determination (FB, FP, CMFP, DMFP)."""
    figure = _paper_panel("11", "Average # of rounds", points)
    for model in ("FB", "FP", "CMFP", "DMFP"):
        figure.series[model] = [p.mean_rounds(model) for p in points]
        if ci:
            figure.errors[model] = [p.ci95(model, "rounds")[1] for p in points]
    return figure


def _metric_series(
    figure: FigureSeries,
    points: Sequence[Any],
    accessor: str,
    metric: str,
    ci: bool,
) -> FigureSeries:
    """Fill one series per model present at the sweep's first point."""
    for model in points[0].models():
        figure.series[model] = [getattr(p, accessor)(model) for p in points]
        if ci:
            figure.errors[model] = [p.ci95(model, metric)[1] for p in points]
    return figure


def _lookup(table: Dict[str, tuple], what: str, metric: str) -> tuple:
    try:
        return table[metric]
    except KeyError:
        known = ", ".join(sorted(table))
        raise KeyError(f"unknown {what} metric {metric!r}; known: {known}") from None


#: Routing-series metrics -> (RoutingSweepPoint accessor, y-axis label).
ROUTING_METRICS: Dict[str, tuple] = {
    "delivery_rate": ("mean_delivery_rate", "Delivery rate"),
    "mean_hops": ("mean_hops", "Mean hops per delivered message"),
    "mean_detour": ("mean_detour", "Mean detour (extra hops)"),
    "abnormal_fraction": ("mean_abnormal_fraction", "Fraction of abnormal routes"),
    "enabled": ("mean_enabled", "Usable endpoint nodes"),
}


def routing_series(
    points: Sequence[RoutingSweepPoint],
    metric: str = "delivery_rate",
    ci: bool = False,
) -> FigureSeries:
    """Routing extension: one routing *metric* per fault model vs. fault count.

    Not a figure of the paper, but its motivation (Sections 1-2) measured:
    how the fault-region model affects the routing layer under the
    synthetic traffic workload of a ``kind="routing"`` sweep.
    """
    accessor, y_label = _lookup(ROUTING_METRICS, "routing", metric)
    first = _first(points)
    figure = FigureSeries(
        figure=f"routing/{metric} ({first.scenarios[0].traffic})",
        distribution=first.distribution,
        x_label="Number of faulty nodes",
        y_label=y_label,
        x_values=[p.num_faults for p in points],
    )
    return _metric_series(figure, points, accessor, metric, ci)


#: Latency-series metrics -> (LatencySweepPoint accessor, y-axis label).
LATENCY_METRICS: Dict[str, tuple] = {
    "mean_latency": ("mean_latency", "Mean latency (cycles)"),
    "mean_queueing": ("mean_queueing", "Mean queueing delay (cycles)"),
    "accepted_load": ("mean_accepted_load", "Accepted load (messages/node/cycle)"),
    "saturated": ("saturated_fraction", "Fraction of saturated runs"),
    "deadlocked": ("deadlocked_fraction", "Fraction of deadlocked runs"),
}


def latency_series(
    points: Sequence[LatencySweepPoint],
    metric: str = "mean_latency",
    ci: bool = False,
) -> FigureSeries:
    """Network-simulator extension: one contention *metric* vs. offered load.

    The latency-vs-load plot is the standard interconnect evaluation the
    paper's contention-free statistics cannot produce; the curve is flat
    near zero load (pure hop latency), rises with queueing delay and blows
    up past the saturation throughput.  *points* come from a
    ``kind="latency"`` sweep.
    """
    accessor, y_label = _lookup(LATENCY_METRICS, "latency", metric)
    first = _first(points)
    trial = first.scenarios[0]
    figure = FigureSeries(
        figure=f"netsim/{metric} ({trial.traffic}/{trial.arrival})",
        distribution=first.distribution,
        x_label="Offered load (messages/node/cycle)",
        y_label=y_label,
        x_values=[p.load for p in points],
        x_key="load",
    )
    return _metric_series(figure, points, accessor, metric, ci)


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
