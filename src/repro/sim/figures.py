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

from repro.sim.metrics import SweepPoint

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


def _first(points: Sequence[SweepPoint]) -> SweepPoint:
    """The sweep's first point: its trials carry the sweep-wide labels."""
    if not points:
        raise ValueError("a figure needs at least one sweep point")
    return points[0]


def _first_record(points: Sequence[SweepPoint]) -> Any:
    """The first trial's first per-model record (traffic, arrival labels)."""
    return next(iter(_first(points).scenarios[0].per_model.values()))


def _fill(
    figure: FigureSeries,
    points: Sequence[SweepPoint],
    models: Sequence[str],
    metric: str,
    ci: bool,
) -> FigureSeries:
    """One series (and with *ci* its half-widths) of *metric* per model."""
    for model in models:
        figure.series[model] = [p.mean(model, metric) for p in points]
        if ci:
            figure.errors[model] = [p.ci95(model, metric)[1] for p in points]
    return figure


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
        x_values=[p.x for p in points],
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
    _fill(figure, points, ("FB", "FP", "MFP"), "disabled_nonfaulty", ci and not log10)
    if log10:
        figure.series = {
            model: [math.log10(v) if v > 0 else -1.0 for v in values]
            for model, values in figure.series.items()
        }
    return figure


def figure10_series(points: Sequence[SweepPoint], ci: bool = False) -> FigureSeries:
    """Figure 10: average size of a fault region (faulty + non-faulty nodes)."""
    figure = _paper_panel("10", "Size of fault block/polygon", points)
    return _fill(figure, points, ("FB", "FP", "MFP"), "mean_region_size", ci)


def figure11_series(points: Sequence[SweepPoint], ci: bool = False) -> FigureSeries:
    """Figure 11: rounds of status determination (FB, FP, CMFP, DMFP)."""
    figure = _paper_panel("11", "Average # of rounds", points)
    return _fill(figure, points, ("FB", "FP", "CMFP", "DMFP"), "rounds", ci)


def _lookup(table: Dict[str, str], what: str, metric: str) -> str:
    try:
        return table[metric]
    except KeyError:
        known = ", ".join(sorted(table))
        raise KeyError(f"unknown {what} metric {metric!r}; known: {known}") from None


#: Routing-series metrics: a :class:`~repro.sim.metrics.RoutingMetrics`
#: field -> its y-axis label.
ROUTING_METRICS: Dict[str, str] = {
    "delivery_rate": "Delivery rate",
    "mean_hops": "Mean hops per delivered message",
    "mean_detour": "Mean detour (extra hops)",
    "abnormal_fraction": "Fraction of abnormal routes",
    "enabled": "Usable endpoint nodes",
}


def routing_series(
    points: Sequence[SweepPoint],
    metric: str = "delivery_rate",
    ci: bool = False,
) -> FigureSeries:
    """Routing extension: one routing *metric* per fault model vs. fault count.

    Not a figure of the paper, but its motivation (Sections 1-2) measured:
    how the fault-region model affects the routing layer under the
    synthetic traffic workload of a ``kind="routing"`` sweep.
    """
    y_label = _lookup(ROUTING_METRICS, "routing", metric)
    figure = FigureSeries(
        figure=f"routing/{metric} ({_first_record(points).traffic})",
        distribution=_first(points).distribution,
        x_label="Number of faulty nodes",
        y_label=y_label,
        x_values=[p.x for p in points],
    )
    return _fill(figure, points, points[0].models(), metric, ci)


#: Latency-series metrics: a :class:`~repro.sim.metrics.NetSimMetrics`
#: field -> its y-axis label (a boolean field averages to a fraction).
LATENCY_METRICS: Dict[str, str] = {
    "mean_latency": "Mean latency (cycles)",
    "mean_queueing": "Mean queueing delay (cycles)",
    "accepted_load": "Accepted load (messages/node/cycle)",
    "saturated": "Fraction of saturated runs",
    "deadlocked": "Fraction of deadlocked runs",
}


def latency_series(
    points: Sequence[SweepPoint],
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
    y_label = _lookup(LATENCY_METRICS, "latency", metric)
    record = _first_record(points)
    figure = FigureSeries(
        figure=f"netsim/{metric} ({record.traffic}/{record.arrival})",
        distribution=_first(points).distribution,
        x_label="Offered load (messages/node/cycle)",
        y_label=y_label,
        x_values=[p.x for p in points],
        x_key="load",
    )
    return _fill(figure, points, points[0].models(), metric, ci)


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
