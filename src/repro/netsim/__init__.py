"""repro.netsim -- the contention-aware lockstep network simulator.

The routing layer of this package answers "where does every message go";
this subsystem answers the paper-standard interconnect question "how long
does it take under load": open-loop injection (Poisson / bursty arrival
processes from the traffic registry), round-based replay of the routed
paths against per-virtual-channel occupancy with deterministic
lowest-index arbitration, and latency / throughput / saturation reporting.

Two bit-identical simulators are registered (``array`` -- the vectorized
default -- and ``scalar`` -- the dict-based oracle), selected per call by
the ``sim=`` argument, like the routing engines' ``engine=``.

Entry points: :meth:`repro.api.MeshSession.simulate` (one call),
:class:`NetSimSession` (the facade), ``SweepExecutor.run(...,
kind="latency")`` (latency-vs-load curves), the ``repro-mesh simulate``
and ``repro-mesh sweep --kind latency`` CLI commands and
``benchmarks/bench_saturation.py``.
"""

from repro.netsim.plan import NUM_VCS, SimPlan, build_plan, channel_ids
from repro.netsim.registry import (
    SimulatorSpec,
    available_simulators,
    get_simulator,
    register_simulator,
    resolve_simulator,
    simulator_keys,
)
from repro.netsim.session import NetSimSession
from repro.netsim.simulators import SimOutcome, simulate_array, simulate_scalar
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
    "register_simulator",
    "get_simulator",
    "available_simulators",
    "simulator_keys",
    "resolve_simulator",
    "NetSimSession",
    "NetSimStats",
    "delivery_fingerprint",
]
