"""The result record of one contention simulation run.

:class:`NetSimStats` is the netsim counterpart of
:class:`repro.routing.stats.RoutingStats`: a self-describing record
(construction / traffic / arrival / router / simulator labels plus the run
configuration) carrying the per-message latency arrays, the per-channel
busy totals and the scalar aggregates the latency-vs-load sweeps plot.
The embedded ``routing`` stats describe the underlying contention-free
paths, so one simulate call answers both "how did routing do" and "what
did contention cost".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.netsim.plan import NUM_VCS
from repro.routing.stats import RoutingStats

#: Virtual-channel names, indexed by vc number (vc0..vc3 abnormal + base).
VC_NAMES: Tuple[str, ...] = ("vc0", "vc1", "vc2", "vc3", "base")


def _empty_int64() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class NetSimStats:
    """Aggregate statistics of one open-loop contention simulation."""

    # -- labels (registry keys / construction label) --------------------------------
    model: str = ""
    traffic: str = ""
    arrival: str = ""
    router: str = ""
    sim: str = ""
    #: ``ArrayOps.key`` of the hot primitives the run used
    #: (:mod:`repro._array_ops`; ``"loops"`` under the test reference).
    backend: str = ""

    # -- run configuration -----------------------------------------------------------
    #: Offered load in messages per node per cycle.
    load: float = 0.0
    #: Injection-window length the load was offered over.
    cycles: int = 0
    #: Hard simulation cap (injection window times the drain factor).
    max_cycles: int = 0
    #: Enabled endpoint nodes of the mesh under test.
    enabled: int = 0

    # -- message counts ---------------------------------------------------------------
    #: Messages in the generated batch.
    attempted: int = 0
    #: Messages the router could not deliver (excluded from the replay).
    unroutable: int = 0
    #: Messages delivered by the simulator within the cap.
    delivered: int = 0
    #: Routed messages still undelivered (or never injected) at the stop.
    in_flight: int = 0

    # -- timing aggregates (delivered messages) ---------------------------------------
    total_latency: int = 0
    total_queueing: int = 0
    total_hops: int = 0
    #: Cycles actually simulated (<= max_cycles).
    cycles_run: int = 0
    #: True when the run stopped on a provably stuck configuration.
    deadlocked: bool = False

    # -- per-message arrays (delivered messages, batch order) -------------------------
    latency: np.ndarray = field(default_factory=_empty_int64)
    hops: np.ndarray = field(default_factory=_empty_int64)
    inject: np.ndarray = field(default_factory=_empty_int64)

    # -- per-channel busy cycles, shape (num_links, NUM_VCS) --------------------------
    busy: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_VCS), np.int64))

    #: SHA-1 over the raw per-message delivery cycles (undelivered = -1):
    #: the bit-identity witness between the array simulator and the oracle.
    delivery_fingerprint: str = ""

    #: Contention-free routing stats of the replayed paths (``sim`` label set).
    routing: Optional[RoutingStats] = None

    # -- derived scalars --------------------------------------------------------------

    @property
    def routed(self) -> int:
        """Messages that took part in the replay."""
        return self.attempted - self.unroutable

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of the whole batch (routing and contention)."""
        return self.delivered / self.attempted if self.attempted else 1.0

    @property
    def mean_latency(self) -> float:
        """Average injection-to-delivery cycles of delivered messages."""
        return self.total_latency / self.delivered if self.delivered else 0.0

    @property
    def mean_queueing(self) -> float:
        """Average stalled cycles (latency minus hops) of delivered messages."""
        return self.total_queueing / self.delivered if self.delivered else 0.0

    @property
    def mean_hops(self) -> float:
        """Average hop count of delivered messages."""
        return self.total_hops / self.delivered if self.delivered else 0.0

    @property
    def accepted_load(self) -> float:
        """Delivered throughput in messages per node per cycle.

        Measured over the injection window, so at saturation it flattens
        at the network's capacity while the offered ``load`` keeps rising
        -- the x axis of the classic latency-throughput plot.
        """
        window = self.cycles if self.cycles else self.cycles_run
        if not window or not self.enabled:
            return 0.0
        return self.delivered / (window * self.enabled)

    @property
    def saturated(self) -> bool:
        """Whether the run shows saturation.

        True when the network deadlocked, could not drain every routed
        message within the cap, or queueing dominates (mean latency at
        least twice the contention-free hop latency -- past the knee of
        the latency-vs-load curve).
        """
        if self.deadlocked or self.in_flight > 0:
            return True
        return bool(self.delivered) and self.total_queueing >= self.total_hops

    # -- channel utilisation ----------------------------------------------------------

    def utilisation(self) -> np.ndarray:
        """Busy fraction per (link, vc) over the simulated cycles."""
        if not self.cycles_run:
            return np.zeros_like(self.busy, dtype=float)
        return self.busy / float(self.cycles_run)

    def vc_busy(self) -> Dict[str, int]:
        """Total busy cycles per virtual channel (vc0..vc3 + base)."""
        totals = self.busy.sum(axis=0) if self.busy.size else np.zeros(NUM_VCS, np.int64)
        return {name: int(totals[index]) for index, name in enumerate(VC_NAMES)}

    def utilisation_histogram(self, bins: int = 10):
        """Histogram of per-channel busy fractions: ``(counts, edges)``.

        Buckets every ``(link, vc)`` buffer by the fraction of simulated
        cycles it was held, over ``[0, 1]`` -- the standard view of how
        evenly load spreads over the fabric (faults and hotspots skew it).
        """
        return np.histogram(self.utilisation().ravel(), bins=bins, range=(0.0, 1.0))

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        state = "deadlock" if self.deadlocked else (
            "saturated" if self.saturated else "stable"
        )
        return (
            f"load={self.load:.4f} delivered={self.delivered}/{self.attempted} "
            f"latency={self.mean_latency:.2f} (queue {self.mean_queueing:.2f}) "
            f"accepted={self.accepted_load:.4f} [{state}]"
        )


def delivery_fingerprint(delivery: np.ndarray) -> str:
    """SHA-1 of the raw delivery-cycle array (the bit-identity witness)."""
    return hashlib.sha1(np.ascontiguousarray(delivery, dtype=np.int64).tobytes()).hexdigest()
