#!/usr/bin/env python
"""Benchmark: the synthetic traffic suite over MFP regions.

Routes one batch of every registered traffic workload (uniform, transpose,
bit reversal, hotspot, nearest neighbour, permutation) over the minimum
faulty polygons of one clustered fault pattern, through the session layer
(``MeshSession.route``), and records per-pattern delivery/detour statistics
plus the batch-generation throughput (the generators are vectorized on the
enabled-node mask, so generation should be microseconds per thousand
messages even on large meshes).

The measurements are written as machine-readable JSON (schema
``repro.bench_traffic/v1``), by default to the gitignored
``benchmarks/results/runs/``.  The committed reference
``benchmarks/results/BENCH_traffic.json`` is guarded by
``benchmarks/golden.py``, which re-runs the 100x100 configuration and
compares every pattern's delivery and detour statistics (timings are
informational only and never compared).

Usage::

    PYTHONPATH=src python benchmarks/bench_traffic_patterns.py            # 100x100 run
    PYTHONPATH=src python benchmarks/bench_traffic_patterns.py \\
        --width 24 --num-faults 40 --messages 200                         # CI smoke
    python benchmarks/golden.py check traffic                             # CI guard
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.api import MeshSession, get_traffic, traffic_keys
from repro.faults.scenario import generate_scenario

SCHEMA = "repro.bench_traffic/v1"
DEFAULT_OUT = Path(__file__).parent / "results" / "runs" / "traffic.json"


def bench_pattern(session: MeshSession, traffic: str, messages: int, seed: int) -> dict:
    """Route one *traffic* batch over the session's MFP regions."""
    context = session.routing.context(construction="mfp")
    spec = get_traffic(traffic)
    start = time.perf_counter()
    batch = spec.generate(context, messages, seed=seed)
    generation_s = time.perf_counter() - start
    # Warm the lazy routing caches (jump tables, ring geometry, packed
    # rings) so the first pattern's timing measures routing, not one-time
    # construction.
    session.route("mfp", traffic=traffic, messages=messages, seed=seed)
    start = time.perf_counter()
    stats = session.route("mfp", traffic=traffic, messages=messages, seed=seed)
    routing_s = time.perf_counter() - start
    report = {
        "label": spec.label,
        "messages": stats.attempted,
        "generated": len(batch),
        "delivery_rate": stats.delivery_rate,
        "mean_hops": stats.mean_hops,
        "mean_detour": stats.mean_detour,
        "abnormal_fraction": stats.abnormal_fraction,
        "generation_seconds": generation_s,
        "routing_seconds": routing_s,
        "messages_per_second": stats.attempted / routing_s if routing_s else 0.0,
        "engine": stats.engine,
    }
    print(
        f"{traffic:>18} delivery {stats.delivery_rate:6.3f}   "
        f"hops {stats.mean_hops:6.2f}   detour {stats.mean_detour:5.2f}   "
        f"generate {generation_s * 1e6:8.1f} us   route {routing_s * 1000:8.2f} ms   "
        f"{report['messages_per_second']:10.0f} msg/s [{stats.engine}]"
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--width", type=int, default=100, help="square mesh width")
    parser.add_argument("--num-faults", type=int, default=400)
    parser.add_argument("--messages", type=int, default=2000)
    parser.add_argument(
        "--distribution", choices=("random", "clustered"), default="clustered"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--torus", action="store_true", help="use a torus topology")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    scenario = generate_scenario(
        num_faults=args.num_faults,
        width=args.width,
        model=args.distribution,
        seed=args.seed,
        torus=args.torus,
    )
    session = MeshSession.from_scenario(scenario)
    print(f"scenario: {scenario.describe()}")
    print(f"enabled endpoints (MFP): {session.route('mfp', messages=0).enabled}")

    patterns = {
        traffic: bench_pattern(session, traffic, args.messages, args.seed)
        for traffic in traffic_keys()
    }

    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "scenario": {
            "width": args.width,
            "num_faults": args.num_faults,
            "distribution": args.distribution,
            "seed": args.seed,
            "torus": args.torus,
            "messages": args.messages,
        },
        "patterns": patterns,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[written to {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
