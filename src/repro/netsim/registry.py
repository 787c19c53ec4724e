"""The simulator registry.

Mirrors the routing-engine registry of :mod:`repro.routing.engine`: two
built-in implementations -- the vectorized ``array`` simulator and the
dict-based ``scalar`` oracle -- selectable per call (``sim="scalar"``).
Both produce bit-identical results, so the choice is a verification and
debugging tool, never a semantics choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro._registry import SpecRegistry
from repro.netsim.plan import SimPlan
from repro.netsim.simulators import SimOutcome, simulate_array, simulate_scalar

#: A runner replays one plan: ``(plan, max_cycles) -> SimOutcome``.
SimRunner = Callable[[SimPlan, int], SimOutcome]


@dataclass(frozen=True)
class SimulatorSpec:
    """One registered contention simulator."""

    key: str
    label: str
    description: str
    runner: SimRunner
    aliases: Tuple[str, ...] = ()


_SIMULATORS = SpecRegistry("simulator")


def register_simulator(spec: SimulatorSpec, replace: bool = False) -> SimulatorSpec:
    """Register *spec* (and its aliases) in the global simulator registry.

    Registration makes the simulator available to ``get_simulator``,
    :meth:`repro.netsim.NetSimSession.simulate`, the latency sweeps and
    the CLI ``simulate --sim`` option.  Raises ``ValueError`` on key
    collisions unless *replace*.
    """
    return _SIMULATORS.register(spec, replace)


def get_simulator(key: str) -> SimulatorSpec:
    """Look up a simulator by key or alias (case-insensitive)."""
    return _SIMULATORS.get(key)


def available_simulators() -> List[SimulatorSpec]:
    """Return every registered simulator spec, in registration order."""
    return _SIMULATORS.available()


def simulator_keys() -> Tuple[str, ...]:
    """Return the registered simulator keys, in registration order."""
    return _SIMULATORS.keys()


register_simulator(
    SimulatorSpec(
        key="array",
        label="AR",
        description="vectorized occupancy replay (lexsort arbitration per cycle)",
        runner=simulate_array,
        aliases=("vectorized", "numpy"),
    )
)
register_simulator(
    SimulatorSpec(
        key="scalar",
        label="SC",
        description="dict-based per-message reference loop (the oracle)",
        runner=simulate_scalar,
        aliases=("loop", "reference"),
    )
)


def resolve_simulator(sim: Optional[str] = None) -> SimulatorSpec:
    """Resolve the simulator that will replay one plan.

    ``sim=None`` means ``auto``, which picks the vectorized array
    simulator.  Both simulators serve every request (they are
    bit-identical), so unlike the engine resolution there is no fallback
    path: an unknown key raises ``KeyError``.
    """
    key = "auto" if sim is None else SpecRegistry.normalise(sim)
    if key == "auto":
        return get_simulator("array")
    return get_simulator(key)
