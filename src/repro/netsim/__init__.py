"""repro.netsim -- the contention-aware lockstep network simulator.

The routing layer of this package answers "where does every message go";
this subsystem answers the paper-standard interconnect question "how long
does it take under load": open-loop injection (Poisson / bursty arrival
processes from the traffic registry), round-based replay of the routed
paths against per-virtual-channel occupancy with deterministic
lowest-index arbitration, and latency / throughput / saturation reporting.

Two bit-identical simulators replay a plan: the vectorized ``array``
simulator, and the dict-based ``scalar`` oracle that ``sim="scalar"``
selects to check it (:func:`resolve_simulator`).

Entry points: :meth:`repro.api.MeshSession.simulate` (one call),
:class:`NetSimSession` (the facade), ``SweepExecutor.run(...,
kind="latency")`` (latency-vs-load curves), the ``repro-mesh simulate``
and ``repro-mesh sweep --kind latency`` CLI commands and
``benchmarks/bench_saturation.py``.
"""

from repro.netsim.plan import NUM_VCS, SimPlan, build_plan, channel_ids
from repro.netsim.session import NetSimSession
from repro.netsim.simulators import (
    SimOutcome,
    SimulatorSpec,
    resolve_simulator,
    simulate_array,
    simulate_scalar,
)
from repro.netsim.stats import VC_NAMES, NetSimStats, delivery_fingerprint

__all__ = [
    "NUM_VCS",
    "VC_NAMES",
    "SimPlan",
    "build_plan",
    "channel_ids",
    "SimOutcome",
    "simulate_array",
    "simulate_scalar",
    "SimulatorSpec",
    "resolve_simulator",
    "NetSimSession",
    "NetSimStats",
    "delivery_fingerprint",
]
