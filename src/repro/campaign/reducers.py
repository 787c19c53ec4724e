"""Row codecs and streaming (Welford) reducers for campaign stores.

One store row is one trial: the content key, sweep position, seed, x
value and every scalar of the trial's per-model metrics, laid out as a
NumPy structured dtype with ``"<label>.<metric>"`` columns.  All metric
fields are scalars, so a row round-trips the metrics object *exactly* --
:meth:`RowCodec.decode` rebuilds the same
:class:`~repro.sim.metrics.ScenarioMetrics` of per-model records the
worker produced, which is what lets a campaign-backed sweep return
reduced points bit-identical to the in-memory path.  One codec serves
every trial kind: the record class and its columns come from the kind's
entry in :data:`repro.api.executor.TRIAL_KINDS`.

Aggregation is streaming: :class:`Moments` folds values with Welford's
algorithm (numerically stable, O(1) memory), and
:class:`StreamingReducer` folds rows *strictly in (point, trial) order*
regardless of arrival order -- floating-point folds are
order-sensitive, so out-of-order arrivals are parked in a (bounded by
the out-of-orderness) pending buffer until their slot comes up.  That
ordering discipline is the whole bit-identity story: a resumed, a
re-sharded and an uninterrupted campaign all fold the same values in
the same order.

Confidence intervals use the normal approximation ``mean +/- z * s /
sqrt(n)`` with ``z = 1.96`` (two-sided 95%); at campaign scale
(hundreds-plus trials per point) the t correction is far below the
quoted precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.sim.metrics import ScenarioMetrics

#: Two-sided 95% normal quantile (scipy.stats.norm.ppf(0.975)).
Z95 = 1.959963984540054

#: Leading identity columns shared by every campaign row dtype.
ID_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("key", "S32"),
    ("point", "<i4"),
    ("trial", "<i4"),
    ("seed", "<i8"),
    ("x", "<f8"),
    ("distribution", "S32"),
)


@dataclass
class Moments:
    """Streaming mean/variance accumulator (Welford's algorithm)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        """Fold one observation."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 below two observations)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval on the mean."""
        if self.count < 2:
            return 0.0
        return Z95 * math.sqrt(self.variance / self.count)


def fold_moments(values: Iterable[float]) -> Moments:
    """Fold *values* (in iteration order) into one :class:`Moments`."""
    moments = Moments()
    for value in values:
        moments.update(float(value))
    return moments


def _ascii(value: Any) -> str:
    return value.decode("ascii") if isinstance(value, bytes) else str(value)


#: How a stored column value becomes the metric attribute it encodes.
_DECODERS = {"<i8": int, "<f8": float, "<i1": bool, "S16": _ascii}


def _instance(cls: type, values: Dict[str, Any]) -> Any:
    """An instance of dataclass *cls* from the *values* it has fields for."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


class RowCodec:
    """Maps one trial's metrics to/from one structured-array row.

    The per-model columns are the campaign kind's
    :attr:`~repro.api.executor.TrialKind.columns`, in the campaign's
    model order with the registry labels as prefixes
    (``"FB.mean_region_size"``).  A row stores the trial's position,
    seed, x value and distribution, not the labels every trial of the
    campaign shares (``traffic``, ``router``, ``arrival``, a latency
    campaign's ``num_faults``): :meth:`decode` takes those from the
    campaign's first planned trial spec.
    """

    def __init__(self, campaign: Any) -> None:
        from repro.api.executor import TRIAL_KINDS
        from repro.api.registry import get_construction

        self.campaign = campaign
        self.kind = TRIAL_KINDS[campaign.kind]
        self.labels: Tuple[str, ...] = tuple(
            get_construction(key).label for key in campaign.models
        )
        self.dtype = np.dtype(
            list(ID_FIELDS)
            + [
                (f"{label}.{name}", fmt)
                for label in self.labels
                for name, fmt in self.kind.columns
            ]
        )
        #: Numeric columns the streaming reducer aggregates (the string
        #: tags, e.g. a latency row's simulator key, stay out).
        self.numeric_columns: Tuple[str, ...] = tuple(
            f"{label}.{name}"
            for label in self.labels
            for name, fmt in self.kind.columns
            if np.dtype(fmt).kind != "S"
        )
        self._shared: Optional[Dict[str, Any]] = None

    def empty(self, count: int) -> np.ndarray:
        """An uninitialised row buffer of *count* rows."""
        return np.zeros(count, dtype=self.dtype)

    def encode_into(self, row: np.ndarray, descriptor: Any, metrics: Any) -> None:
        """Fill one row from a trial *descriptor* and its *metrics*."""
        row["key"] = descriptor.key.encode("ascii")
        row["point"] = descriptor.point
        row["trial"] = descriptor.trial
        row["seed"] = descriptor.seed
        row["x"] = descriptor.x
        row["distribution"] = _ascii(metrics.distribution).encode("ascii")
        for label in self.labels:
            model = metrics.per_model[label]
            for name, _ in self.kind.columns:
                value = getattr(model, name)
                row[f"{label}.{name}"] = (
                    value.encode("ascii") if isinstance(value, str) else value
                )

    def decode(self, row: np.ndarray) -> Any:
        """Rebuild the exact ``ScenarioMetrics`` of one row."""
        if self._shared is None:
            first = next(self.campaign.iter_plan()).spec
            self._shared = {f.name: getattr(first, f.name) for f in fields(first)}
        values = dict(self._shared)
        values[self.kind.axis] = self.kind.axis_type(row["x"])
        values["distribution"] = _ascii(row["distribution"])
        values["seed"] = int(row["seed"])
        scenario = _instance(ScenarioMetrics, values)
        for label in self.labels:
            columns = {
                name: _DECODERS[fmt](row[f"{label}.{name}"])
                for name, fmt in self.kind.columns
            }
            scenario.add(_instance(self.kind.record, {**values, **columns, "model": label}))
        return scenario


@dataclass
class CampaignPoint:
    """Streaming reduction of one sweep point: per-column mean/CI."""

    point: int
    x: float
    n: int
    stats: Dict[str, Moments] = field(default_factory=dict)

    def mean(self, column: str) -> float:
        """Streaming mean of one ``"<label>.<metric>"`` column."""
        return self.stats[column].mean

    def ci95(self, column: str) -> float:
        """95% confidence half-width of one column's mean."""
        return self.stats[column].ci95

    def as_dict(self) -> Dict[str, Any]:
        """JSON form: per-column ``{mean, var, ci95}`` plus identity."""
        return {
            "point": self.point,
            "x": self.x,
            "n": self.n,
            "columns": {
                column: {
                    "mean": moments.mean,
                    "var": moments.variance,
                    "ci95": moments.ci95,
                }
                for column, moments in self.stats.items()
            },
        }


class StreamingReducer:
    """Fold store rows into per-point moments, in (point, trial) order.

    ``feed`` accepts rows in *any* order: each point tracks the next
    expected trial and parks early arrivals in a pending buffer (values
    only, never whole chunks), so memory stays proportional to the
    out-of-orderness, not the campaign.  Duplicate (point, trial) rows
    -- a rescheduled trial that completed twice -- are dropped; trials
    are deterministic, so duplicates are bit-identical anyway.
    """

    def __init__(self, campaign: Any, codec: Optional[Any] = None) -> None:
        self.campaign = campaign
        self.codec = codec if codec is not None else campaign.codec()
        self.columns = self.codec.numeric_columns
        self._points: List[Dict[str, Any]] = [
            {
                "next": 0,
                "pending": {},
                "moments": {column: Moments() for column in self.columns},
                "n": 0,
            }
            for _ in campaign.axis
        ]
        self.rows_seen = 0
        self.duplicates = 0

    def feed(self, rows: np.ndarray) -> None:
        """Fold a chunk of rows (any order, duplicates tolerated)."""
        for row in rows:
            point_index = int(row["point"])
            trial = int(row["trial"])
            state = self._points[point_index]
            if trial < state["next"] or trial in state["pending"]:
                self.duplicates += 1
                continue
            state["pending"][trial] = tuple(
                float(row[column]) for column in self.columns
            )
            self.rows_seen += 1
            while state["next"] in state["pending"]:
                values = state["pending"].pop(state["next"])
                for column, value in zip(self.columns, values):
                    state["moments"][column].update(value)
                state["n"] += 1
                state["next"] += 1

    @property
    def complete(self) -> bool:
        """True once every point folded all of its trials."""
        return all(state["n"] >= self.campaign.trials for state in self._points)

    def points(self) -> List[CampaignPoint]:
        """The reduced points, in axis order."""
        return [
            CampaignPoint(
                point=index,
                x=self.campaign.axis[index],
                n=state["n"],
                stats=dict(state["moments"]),
            )
            for index, state in enumerate(self._points)
        ]


def scenario_chunks(
    campaign: Any, chunks: Iterable[np.ndarray]
) -> List[List[Any]]:
    """Decode chunks into per-point scenario lists, in (point, trial) order.

    The exact-object path behind ``CampaignRunner.sweep_points``:
    duplicates drop, trials sort, and each point's list holds the same
    metrics objects (bit-for-bit) an in-memory sweep would have built.
    """
    codec = campaign.codec()
    slots: List[Dict[int, Any]] = [dict() for _ in campaign.axis]
    for chunk in chunks:
        for row in chunk:
            by_trial = slots[int(row["point"])]
            trial = int(row["trial"])
            if trial not in by_trial:
                by_trial[trial] = codec.decode(row)
    return [
        [by_trial[trial] for trial in sorted(by_trial)] for by_trial in slots
    ]
