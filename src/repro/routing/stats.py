"""Aggregate routing statistics and deadlock-freedom analysis.

:class:`RoutingStats` folds per-message :class:`RouteResult` records into
the scalar aggregates the evaluation harness reports (delivery rate, mean
hops, detour overhead, abnormal-route fraction).  Both routing engines of
:meth:`repro.api.MeshSession.route` fill it, and produce bit-identical
records on the same message batch.

Deadlock-freedom evidence (the channel-dependency-cycle check of
:mod:`repro.routing.channels`) needs the individual route results, which
large sweeps do not keep by default.  Requesting the check without them is
a structured :class:`MissingRouteResultsError` -- and
``MeshSession.route(check_deadlock=True)`` auto-enables result collection
so the footgun cannot trigger mid-analysis at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.routing.channels import (
    assign_channels,
    channel_dependency_graph,
    has_cyclic_dependency,
)
from repro.routing.extended_ecube import RouteResult


class MissingRouteResultsError(ValueError):
    """Channel-dependency analysis needs per-route results that were not kept.

    Raised when :meth:`RoutingStats.deadlock_free` is called on statistics
    recorded without ``collect_results=True``.  Subclasses ``ValueError``
    for backward compatibility with callers that caught the old error.
    """


@dataclass
class RoutingStats:
    """Aggregate statistics of one routing experiment.

    ``collect_results`` keeps every individual :class:`RouteResult` in
    ``results``.  It is off by default: large sweeps route millions of
    messages and only need the scalar aggregates, so the unbounded
    per-message list would dominate memory.  Opt in for tests and for
    post-hoc path analysis (e.g. :meth:`deadlock_free`).

    The ``model`` / ``traffic`` / ``router`` labels and the ``enabled``
    endpoint count are filled in by :meth:`repro.api.MeshSession.route` so
    a stats record is self-describing in sweep tables; ad-hoc batches leave
    them at their defaults.
    """

    attempted: int = 0
    delivered: int = 0
    failed: int = 0
    total_hops: int = 0
    total_detour: int = 0
    minimal_routes: int = 0
    abnormal_routes: int = 0
    results: List[RouteResult] = field(default_factory=list)
    collect_results: bool = False
    #: Number of enabled endpoint nodes of the experiment (0 = unknown).
    enabled: int = 0
    #: Construction / traffic-pattern / router registry labels (optional).
    model: str = ""
    traffic: str = ""
    router: str = ""
    #: The engine that produced the record (``"scalar"`` / ``"batch"``;
    #: empty for ad-hoc accumulation).  The batch engine is asserted
    #: bit-identical to the scalar loop on every aggregate field, so the
    #: label is provenance, not a caveat.
    engine: str = ""
    #: The simulator when the record describes the routed paths of a
    #: :mod:`repro.netsim` contention run (``"array"`` / ``"scalar"``;
    #: empty for contention-free routing).  Like ``engine``, provenance:
    #: the simulators are asserted bit-identical.
    sim: str = ""
    #: ``ArrayOps.key`` of the hot primitives the run used
    #: (:mod:`repro._array_ops`): ``"numpy"``, or ``"loops"`` when the tests
    #: swap in the reference; empty for ad-hoc accumulation.  Provenance
    #: like ``engine``/``sim``: the two are asserted bit-identical.
    backend: str = ""
    #: Cached deadlock-freedom verdict (filled by :meth:`deadlock_free`).
    _deadlock_free: Optional[bool] = field(default=None, repr=False)

    @property
    def delivery_rate(self) -> float:
        """Fraction of attempted messages that reached their destination."""
        return self.delivered / self.attempted if self.attempted else 1.0

    @property
    def mean_hops(self) -> float:
        """Average number of hops over delivered messages."""
        return self.total_hops / self.delivered if self.delivered else 0.0

    @property
    def mean_detour(self) -> float:
        """Average extra hops (over the fault-free minimum) of delivered messages."""
        return self.total_detour / self.delivered if self.delivered else 0.0

    @property
    def minimal_fraction(self) -> float:
        """Fraction of delivered messages that used a minimal path."""
        return self.minimal_routes / self.delivered if self.delivered else 1.0

    @property
    def abnormal_fraction(self) -> float:
        """Fraction of delivered messages that had to route around a region."""
        return self.abnormal_routes / self.delivered if self.delivered else 0.0

    def record(self, result: RouteResult) -> None:
        """Fold one route result into the aggregate."""
        self.attempted += 1
        self._deadlock_free = None
        if self.collect_results:
            self.results.append(result)
        if not result.delivered:
            self.failed += 1
            return
        self.delivered += 1
        self.total_hops += result.hops
        self.total_detour += result.detour
        if result.is_minimal:
            self.minimal_routes += 1
        if result.abnormal_hops:
            self.abnormal_routes += 1

    def deadlock_free(self) -> bool:
        """Check the channel-dependency graph of delivered routes for cycles.

        Needs the individual route results: raises
        :class:`MissingRouteResultsError` when messages were delivered but
        ``collect_results`` was off.  Ask the run entry point for the check
        (``check_deadlock=True``) to have collection enabled automatically.
        The verdict is cached until further results are recorded.
        """
        if self._deadlock_free is None:
            if self.delivered and not self.results:
                raise MissingRouteResultsError(
                    "deadlock_free() needs the individual route results; run "
                    "with collect_results=True (or request check_deadlock=True "
                    "so collection is enabled automatically). Note that the "
                    "network simulator (repro.netsim) checks deadlock "
                    "dynamically instead: session.simulate(...) reports a "
                    "'deadlocked' verdict without keeping per-route results."
                )
            assignments = [
                assign_channels(result) for result in self.results if result.delivered
            ]
            graph = channel_dependency_graph(assignments)
            self._deadlock_free = not has_cyclic_dependency(graph)
        return self._deadlock_free
