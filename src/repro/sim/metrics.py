"""Metric records for the evaluation harness.

The paper's three figures all plot one scalar per (fault model, fault
count, distribution) combination:

* Figure 9 -- total number of non-faulty but disabled nodes in the network;
* Figure 10 -- average region size (faulty + non-faulty nodes per region);
* Figure 11 -- number of rounds of neighbour information exchange needed to
  determine all node statuses (FB, FP, CMFP and DMFP).

Every sweep kind shares one three-level shape.  A per-model record holds
the scalars of one model on one fault pattern: :class:`ConstructionMetrics`
for a construction (the figures' scalars), :class:`RoutingMetrics` for a
routed message batch and :class:`NetSimMetrics` for an open-loop
contention simulation (:mod:`repro.netsim`).  :class:`ScenarioMetrics`
groups one trial's records by model label, and :class:`SweepPoint` holds
the trials at one value of the sweep axis -- the fault count, or a latency
sweep's offered load -- and averages any record field per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ConstructionMetrics:
    """Scalars extracted from one construction on one fault pattern."""

    model: str
    num_faults: int
    num_regions: int
    disabled_nonfaulty: int
    mean_region_size: float
    rounds: int

    @property
    def disabled_total(self) -> int:
        """Faulty plus sacrificed non-faulty nodes."""
        return self.num_faults + self.disabled_nonfaulty


@dataclass(frozen=True)
class RoutingMetrics:
    """Scalars of one routed message batch over one construction's regions."""

    model: str
    traffic: str
    router: str
    num_faults: int
    enabled: int
    attempted: int
    delivered: int
    delivery_rate: float
    mean_hops: float
    mean_detour: float
    minimal_fraction: float
    abnormal_fraction: float

    @classmethod
    def from_stats(
        cls,
        stats,
        *,
        model: Optional[str] = None,
        num_faults: int = 0,
    ) -> "RoutingMetrics":
        """Extract the scalars from a :class:`repro.routing.RoutingStats`."""
        return cls(
            model=model if model is not None else stats.model,
            traffic=stats.traffic,
            router=stats.router,
            num_faults=num_faults,
            enabled=stats.enabled,
            attempted=stats.attempted,
            delivered=stats.delivered,
            delivery_rate=stats.delivery_rate,
            mean_hops=stats.mean_hops,
            mean_detour=stats.mean_detour,
            minimal_fraction=stats.minimal_fraction,
            abnormal_fraction=stats.abnormal_fraction,
        )


@dataclass(frozen=True)
class NetSimMetrics:
    """Scalars of one open-loop contention simulation run."""

    model: str
    traffic: str
    arrival: str
    router: str
    sim: str
    load: float
    num_faults: int
    enabled: int
    attempted: int
    unroutable: int
    delivered: int
    in_flight: int
    delivery_rate: float
    mean_latency: float
    mean_queueing: float
    mean_hops: float
    accepted_load: float
    cycles_run: int
    saturated: bool
    deadlocked: bool

    @classmethod
    def from_stats(cls, stats, *, num_faults: int = 0) -> "NetSimMetrics":
        """Extract the scalars from a :class:`repro.netsim.NetSimStats`."""
        return cls(
            model=stats.model,
            traffic=stats.traffic,
            arrival=stats.arrival,
            router=stats.router,
            sim=stats.sim,
            load=stats.load,
            num_faults=num_faults,
            enabled=stats.enabled,
            attempted=stats.attempted,
            unroutable=stats.unroutable,
            delivered=stats.delivered,
            in_flight=stats.in_flight,
            delivery_rate=stats.delivery_rate,
            mean_latency=stats.mean_latency,
            mean_queueing=stats.mean_queueing,
            mean_hops=stats.mean_hops,
            accepted_load=stats.accepted_load,
            cycles_run=stats.cycles_run,
            saturated=stats.saturated,
            deadlocked=stats.deadlocked,
        )


@dataclass
class ScenarioMetrics:
    """One trial's per-model records (any kind), keyed by model label."""

    num_faults: int
    distribution: str
    seed: int
    per_model: Dict[str, Any] = field(default_factory=dict)

    def add(self, metrics: Any) -> None:
        """Register one model's record."""
        self.per_model[metrics.model] = metrics

    def saving_vs_fb(self, model: str) -> float:
        """Fraction of FB-disabled non-faulty nodes re-enabled by *model*.

        The paper quotes roughly 50% for FP and 90% for MFP.
        """
        fb = self.per_model["FB"].disabled_nonfaulty
        if fb == 0:
            return 0.0
        return 1.0 - self.per_model[model].disabled_nonfaulty / fb


@dataclass
class SweepPoint:
    """The trials at one point of a sweep axis."""

    #: The axis value, in the trial kind's ``axis_type``: the fault count,
    #: or a latency sweep's offered load.
    x: Any
    distribution: str
    scenarios: List[ScenarioMetrics] = field(default_factory=list)

    def models(self) -> List[str]:
        """The model labels present at this point (first scenario's order)."""
        return list(self.scenarios[0].per_model) if self.scenarios else []

    def _values(self, model: str, metric: str) -> List[float]:
        return [float(getattr(s.per_model[model], metric)) for s in self.scenarios]

    def mean(self, model: str, metric: str) -> float:
        """Average one field (attribute name) of *model*'s record over the trials."""
        if not self.scenarios:
            return 0.0
        return mean(self._values(model, metric))

    def ci95(self, model: str, metric: str) -> Tuple[float, float]:
        """Streaming ``(mean, 95% half-width)`` of one field of *model*'s record.

        Shares the Welford fold with the campaign reducers
        (:mod:`repro.campaign.reducers`), so an in-memory sweep's intervals
        match a campaign's bit-for-bit given the same trials in the same
        order.
        """
        from repro.campaign.reducers import fold_moments

        moments = fold_moments(self._values(model, metric))
        return moments.mean, moments.ci95
