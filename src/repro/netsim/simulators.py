"""The two contention simulators: vectorized arrays vs. the scalar oracle.

Both implement the *same* cycle contract over a :class:`~repro.netsim.plan.SimPlan`
and must produce bit-identical results (asserted by the differential tests
and the saturation benchmark, like the scalar routing engine):

* A message waits at its source (infinite injection queue, holding no
  buffer) until its injection cycle has been reached.
* On every cycle ``t`` each undelivered injected message requests the
  virtual-channel buffer of its next hop.  A request is granted when that
  buffer was free *at the start of the cycle* and the message has the
  lowest batch index among the cycle's requesters of that buffer
  (deterministic round-robin-free arbitration; losers stall in place and
  accumulate queueing latency).  All grants of a cycle apply
  simultaneously -- a buffer freed this cycle is re-acquirable only on the
  next one, the standard conservative pipeline model.
* A granted message releases the buffer of its previous hop, occupies the
  requested one and advances.  A grant on the final hop delivers the
  message at ``t + 1`` (the ejection port consumes immediately, so
  final-hop buffers never stay occupied).
* Per-channel busy time accumulates the cycles a buffer was held
  (including stalled cycles); buffers still held when the run stops are
  flushed into the totals.
* The run stops when every message is delivered, at the hard cycle cap,
  or on deadlock: a cycle with at least one requester, no grants and no
  pending injections cannot ever make progress again (occupancy and
  requests are then static), so the simulators stop and report
  ``deadlocked`` instead of spinning to the cap.  While injections are
  still pending, a zero-grant cycle merely fast-forwards to the next
  injection time -- a pure wall-clock optimisation, since nothing can
  change in between.

The array simulator keeps message state in NumPy arrays and resolves each
cycle's arbitration with the ``grant_messages`` primitive of
:func:`repro._array_ops.active_ops` (one lexsort over ``(channel, message
index)``); the scalar oracle walks plain dictionaries message by message.  Keeping the
oracle around (``sim="scalar"``, see :func:`resolve_simulator`) pins down
the contract the fast path must honour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro import _array_ops
from repro.netsim.plan import SimPlan


@dataclass(eq=False)
class SimOutcome:
    """What one simulator run produced (aligned with the plan's messages)."""

    #: Per routed message: delivery cycle, or -1 when still undelivered.
    delivery: np.ndarray
    #: Cycles actually simulated (<= the hard cap).
    cycles: int
    #: True when the run stopped on a provably stuck configuration.
    deadlocked: bool
    #: Per flat channel: cycles its buffer was held.
    busy: np.ndarray


def simulate_array(plan: SimPlan, max_cycles: int) -> SimOutcome:
    """Replay *plan* with vectorized per-cycle arbitration."""
    n = plan.num_routed
    busy = np.zeros(plan.num_channels, dtype=np.int64)
    delivery = np.full(n, -1, dtype=np.int64)
    if n == 0 or max_cycles <= 0:
        return SimOutcome(delivery=delivery, cycles=0, deadlocked=False, busy=busy)
    order = np.argsort(plan.inject, kind="stable")
    sorted_inject = plan.inject[order]
    pos = np.zeros(n, dtype=np.int64)
    nxt = np.zeros(n, dtype=np.int64)
    has_hops = plan.lengths > 0
    nxt[has_hops] = plan.hop_channel[plan.offsets[has_hops]]
    held = np.full(n, -1, dtype=np.int64)
    entered = np.zeros(n, dtype=np.int64)
    occupied = np.zeros(plan.num_channels, dtype=bool)
    active = np.empty(0, dtype=np.int64)
    pointer = 0
    t = 0
    deadlocked = False
    grant_messages = _array_ops.active_ops().grant_messages
    while t < max_cycles:
        new_pointer = int(np.searchsorted(sorted_inject, t, side="right"))
        if new_pointer > pointer:
            newcomers = order[pointer:new_pointer]
            pointer = new_pointer
            # Degenerate zero-hop paths deliver on injection (no channel use).
            instant = newcomers[plan.lengths[newcomers] == 0]
            if instant.size:
                delivery[instant] = plan.inject[instant]
                newcomers = newcomers[plan.lengths[newcomers] > 0]
            active = np.concatenate([active, newcomers])
        if active.size == 0:
            if pointer >= n:
                break
            t = min(int(sorted_inject[pointer]), max_cycles)
            continue
        # Arbitration is an array primitive: each free channel
        # grants its lowest-index requester (losers stall in place).
        granted = grant_messages(nxt[active], active, occupied)
        if granted.size == 0:
            if pointer >= n:
                deadlocked = True
                break
            t = min(int(sorted_inject[pointer]), max_cycles)
            continue
        channel = nxt[granted]
        previous = held[granted]
        holding = previous >= 0
        # Each holder holds a distinct buffer, so plain fancy indexing is
        # collision-free for both the busy add and the release.
        busy[previous[holding]] += t - entered[granted[holding]]
        occupied[previous[holding]] = False
        pos[granted] += 1
        final = pos[granted] == plan.lengths[granted]
        arrived = granted[final]
        delivery[arrived] = t + 1
        moving = granted[~final]
        moved_to = channel[~final]
        occupied[moved_to] = True
        held[moving] = moved_to
        entered[moving] = t
        nxt[moving] = plan.hop_channel[plan.offsets[moving] + pos[moving]]
        if arrived.size:
            active = active[delivery[active] < 0]
        t += 1
    if active.size:
        holders = active[held[active] >= 0]
        busy[held[holders]] += t - entered[holders]
    return SimOutcome(delivery=delivery, cycles=t, deadlocked=deadlocked, busy=busy)


def simulate_scalar(plan: SimPlan, max_cycles: int) -> SimOutcome:
    """Replay *plan* with the dict-based per-message reference loop.

    Deliberately naive -- plain dictionaries and per-message Python steps,
    the transcription of the module contract -- so it stays legible as the
    differential oracle for :func:`simulate_array`.
    """
    n = plan.num_routed
    busy = np.zeros(plan.num_channels, dtype=np.int64)
    delivery = np.full(n, -1, dtype=np.int64)
    if n == 0 or max_cycles <= 0:
        return SimOutcome(delivery=delivery, cycles=0, deadlocked=False, busy=busy)
    order = sorted(range(n), key=lambda m: (int(plan.inject[m]), m))
    position = {m: 0 for m in range(n)}
    held: dict = {}
    entered: dict = {}
    occupied: dict = {}
    active: list = []
    pointer = 0
    t = 0
    deadlocked = False
    while t < max_cycles:
        while pointer < n and int(plan.inject[order[pointer]]) <= t:
            message = order[pointer]
            pointer += 1
            if int(plan.lengths[message]) == 0:
                delivery[message] = int(plan.inject[message])
            else:
                active.append(message)
        if not active:
            if pointer >= n:
                break
            t = min(int(plan.inject[order[pointer]]), max_cycles)
            continue
        grants = {}
        for message in sorted(active):
            wanted = int(plan.hop_channel[plan.offsets[message] + position[message]])
            if wanted in occupied or wanted in grants:
                continue
            grants[wanted] = message
        if not grants:
            if pointer >= n:
                deadlocked = True
                break
            t = min(int(plan.inject[order[pointer]]), max_cycles)
            continue
        for wanted, message in grants.items():
            if message in held:
                previous = held.pop(message)
                busy[previous] += t - entered.pop(message)
                del occupied[previous]
            position[message] += 1
            if position[message] == int(plan.lengths[message]):
                delivery[message] = t + 1
                active.remove(message)
            else:
                occupied[wanted] = message
                held[message] = wanted
                entered[message] = t
        t += 1
    for message, channel in held.items():
        busy[channel] += t - entered[message]
    return SimOutcome(delivery=delivery, cycles=t, deadlocked=deadlocked, busy=busy)


#: A runner replays one plan: ``(plan, max_cycles) -> SimOutcome``.
SimRunner = Callable[[SimPlan, int], SimOutcome]


@dataclass(frozen=True)
class SimulatorSpec:
    """One contention simulator: the ``stats.sim`` label and its runner."""

    key: str
    runner: SimRunner


_SIMULATORS = {
    "array": SimulatorSpec("array", simulate_array),
    "scalar": SimulatorSpec("scalar", simulate_scalar),
}


def resolve_simulator(sim: Optional[str] = None) -> SimulatorSpec:
    """The simulator that replays one plan.

    ``None`` and ``"auto"`` pick the vectorized ``array`` simulator;
    ``"scalar"`` picks the dict-based oracle, which checks it.  Both are
    bit-identical.  Any other key raises ``KeyError``.
    """
    try:
        return _SIMULATORS["array" if sim in (None, "auto") else sim]
    except KeyError:
        raise KeyError(
            f"unknown simulator {sim!r}; known: auto, {', '.join(_SIMULATORS)}"
        ) from None
