"""Ablation: how the fault-region model affects the routing layer.

Not a figure of the paper, but the motivation behind it (Sections 1-2): a
fault model that disables fewer non-faulty nodes leaves more nodes usable
as message endpoints and causes fewer/shorter detours.  This benchmark
routes the same random traffic over FB, FP and MFP regions built from the
same fault pattern and records delivery rate, mean hops, detour and the
routing throughput (``time.perf_counter`` timings, like every routing
bench).
"""

import time

from repro.api import MeshSession
from repro.faults.scenario import generate_scenario

from conftest import record_result

NUM_MESSAGES = 400


def _routing_comparison(num_faults, width, seed):
    scenario = generate_scenario(
        num_faults=num_faults, width=width, model="clustered", seed=seed
    )
    session = MeshSession.from_scenario(scenario)
    rows = {}
    for key in ("fb", "fp", "mfp"):
        route = dict(traffic="uniform", messages=NUM_MESSAGES, seed=seed)
        session.route(key, **route)  # warm construction/router/ring caches
        start = time.perf_counter()
        stats = session.route(key, **route)
        routing_s = time.perf_counter() - start
        rows[stats.model] = {
            "enabled_nodes": stats.enabled,
            "delivery_rate": stats.delivery_rate,
            "mean_hops": stats.mean_hops,
            "mean_detour": stats.mean_detour,
            "abnormal_fraction": stats.abnormal_fraction,
            "messages_per_second": (
                stats.attempted / routing_s if routing_s else 0.0
            ),
            "engine": stats.engine,
        }
    return rows


def test_routing_ablation(benchmark):
    rows = benchmark.pedantic(
        _routing_comparison, args=(200, 60, 7), rounds=1, iterations=1
    )
    lines = [
        "Routing ablation: 60x60 mesh, 200 clustered faults, 400 messages",
        f"{'model':>6} {'enabled':>8} {'delivery':>9} {'hops':>7} {'detour':>7} "
        f"{'abnormal':>9} {'msg/s':>9} {'engine':>7}",
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:>6} {row['enabled_nodes']:>8} {row['delivery_rate']:>9.3f} "
            f"{row['mean_hops']:>7.2f} {row['mean_detour']:>7.2f} "
            f"{row['abnormal_fraction']:>9.3f} {row['messages_per_second']:>9.0f} "
            f"{row['engine']:>7}"
        )
    record_result("ablation_routing", "\n".join(lines))

    # The minimum polygons keep at least as many endpoints usable as the
    # coarser models and never hurt deliverability.
    assert rows["MFP"]["enabled_nodes"] >= rows["FP"]["enabled_nodes"]
    assert rows["FP"]["enabled_nodes"] >= rows["FB"]["enabled_nodes"]
    assert rows["MFP"]["delivery_rate"] >= rows["FB"]["delivery_rate"] - 0.05
