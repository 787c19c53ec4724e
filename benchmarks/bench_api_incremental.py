"""Benchmark: incremental MeshSession updates vs full rebuilds.

Replays the paper's simulation shape -- faults sequentially added to a
100x100 mesh with the constructions re-run after every batch (Figures
9-11) -- two ways:

* **full**: a fresh one-shot build of the construction after every batch,
  which is what ``run_sweep`` historically did per point;
* **incremental**: one :class:`repro.api.MeshSession` that absorbs each
  batch with ``add_faults`` and rebuilds through its dirty-component
  cache, so only components touched by the new faults are recomputed.

Both paths must produce identical results at every step (asserted); the
recorded table reports the wall-clock ratio.  DMFP's per-component outcomes
come from a process-wide shape memo that both paths would share, so the
memo is cleared before each timed path: a warm memo would hand the second
path the first path's work.
"""

from __future__ import annotations

import time

from conftest import MESH_WIDTH, record_result

from repro.api import MeshSession, get_construction
from repro.distributed.dmfp import shape_outcome
from repro.faults.scenario import generate_scenario

#: Sequential-insertion schedule: 16 batches of 50 faults, i.e. the paper's
#: 100..800 sweep replayed on a single evolving fault pattern.
NUM_BATCHES = 16
BATCH_SIZE = 50


def _batches(width: int):
    scenario = generate_scenario(
        num_faults=NUM_BATCHES * BATCH_SIZE,
        width=width,
        model="clustered",
        seed=7,
    )
    faults = list(scenario.faults)
    topology = scenario.topology()
    return topology, [
        faults[i * BATCH_SIZE : (i + 1) * BATCH_SIZE] for i in range(NUM_BATCHES)
    ]


def _run_sequential(key: str, width: int = MESH_WIDTH):
    topology, batches = _batches(width)
    spec = get_construction(key)

    session = MeshSession(topology=topology)
    incremental_results = []
    shape_outcome.cache_clear()
    start = time.perf_counter()
    for batch in batches:
        session.add_faults(batch)
        incremental_results.append(session.build(key))
    incremental_seconds = time.perf_counter() - start

    full_results = []
    prefix = []
    shape_outcome.cache_clear()
    start = time.perf_counter()
    for batch in batches:
        prefix.extend(batch)
        full_results.append(spec.build(prefix, topology))
    full_seconds = time.perf_counter() - start

    for step, (inc, full) in enumerate(zip(incremental_results, full_results)):
        assert inc.disabled_set() == full.disabled_set(), (key, step)
        assert inc.rounds == full.rounds, (key, step)
        assert inc.num_regions == full.num_regions, (key, step)
    return incremental_seconds, full_seconds, session.cache_info


def test_incremental_sequential_sweep():
    """Sequential-fault sweep: incremental session vs full rebuilds."""
    lines = [
        f"Incremental MeshSession vs full rebuilds "
        f"({MESH_WIDTH}x{MESH_WIDTH} mesh, {NUM_BATCHES} batches of "
        f"{BATCH_SIZE} clustered faults)",
        f"{'model':>6} {'full (s)':>10} {'incremental (s)':>16} {'speedup':>8}",
    ]
    for key in ("mfp", "cmfp", "dmfp"):
        incremental_seconds, full_seconds, cache_info = _run_sequential(key)
        speedup = full_seconds / incremental_seconds if incremental_seconds else 0.0
        lines.append(
            f"{key:>6} {full_seconds:>10.3f} {incremental_seconds:>16.3f} "
            f"{speedup:>7.2f}x"
        )
        # The identical-results assertions live in _run_sequential; here we
        # only require that incrementality does not lose time outright.
        assert speedup > 1.0, (key, speedup, cache_info)
    record_result("api_incremental", "\n".join(lines))
