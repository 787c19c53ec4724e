#!/usr/bin/env python
"""Differential benchmark: the bitmask kernel vs the set-based oracle.

Runs the MFP / CMFP / DMFP constructions twice on the same scenario -- once
through the production builders, which run on the
:mod:`repro.geometry.masks` kernel, and once through the set-based
reference builders of :mod:`repro.core.reference` (the differential-test
oracle) -- asserts the results are bit-identical, and times both.  A
routing-sweep benchmark then measures the cost of repeated router
instantiations, comparing the region-index fast path against a faithful
re-enactment of the pre-kernel per-node dict build.

The measurements are written as machine-readable JSON (see the README's
"Performance" section for the schema); the committed reference run lives at
``benchmarks/results/BENCH_kernel.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py                  # full 300x300 run
    PYTHONPATH=src python benchmarks/bench_kernel.py --width 40 \\
        --num-faults 60 --trials 1 --out /tmp/bench.json              # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernel.py --min-speedup 5  # enforce the bar
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

import numpy as np

from repro._array_ops import active_backend_key
from repro.core import reference
from repro.core.mfp import build_minimum_polygons
from repro.distributed.dmfp import build_minimum_polygons_distributed, shape_outcome
from repro.faults.scenario import generate_scenario
from repro.routing.registry import get_router
from repro.routing.traffic import TrafficContext, get_traffic

SCHEMA = "repro.bench_kernel/v1"
DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_kernel.json"


def _best_time(fn, trials: int):
    """Return ``(best_seconds, last_result)`` over *trials* runs of *fn*.

    Every run starts with DMFP's process-wide shape memo empty, so a run
    never reuses the component outcomes of the run before it.
    """
    best = float("inf")
    result = None
    for _ in range(trials):
        shape_outcome.cache_clear()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _compare(kernel, oracle) -> list:
    """Return the differences between a kernel build and its reference."""
    problems = []
    if not np.array_equal(kernel.grid.disabled, oracle.grid.disabled):
        problems.append("disabled masks differ")
    if not np.array_equal(kernel.grid.unsafe, oracle.grid.unsafe):
        problems.append("unsafe masks differ")
    if [r.nodes for r in kernel.regions] != [r.nodes for r in oracle.regions]:
        problems.append("region node sets differ")
    if [r.faulty_nodes for r in kernel.regions] != [
        r.faulty_nodes for r in oracle.regions
    ]:
        problems.append("region fault sets differ")
    if kernel.rounds != oracle.rounds:
        problems.append(f"rounds differ ({kernel.rounds} != {oracle.rounds})")
    if kernel.num_disabled_nonfaulty != oracle.grid.num_disabled_nonfaulty:
        problems.append("disabled-nonfaulty counts differ")
    sizes = [r.size for r in oracle.regions]
    if kernel.mean_region_size != (sum(sizes) / len(sizes) if sizes else 0.0):
        problems.append("mean region sizes differ")
    return problems


def _seed_style_router_setup(topology, regions):
    """Re-enact the pre-kernel router instantiation cost.

    The original router built a node -> region dict and a disabled set with
    one Python loop iteration per region node, and the simulator scanned
    every grid node through ``is_disabled``; this reproduces exactly those
    loops so the sweep benchmark has a faithful baseline.
    """
    disabled = set()
    region_of = {}
    for index, region in enumerate(regions):
        for node in region.nodes:
            disabled.add(node)
            region_of[node] = index
    enabled = [node for node in topology.nodes() if node not in disabled]
    return disabled, region_of, enabled


def bench_constructions(scenario, topology, trials: int) -> dict:
    faults = scenario.faults
    builders = {
        "mfp": (
            lambda: build_minimum_polygons(faults, topology=topology, compute_rounds=False),
            lambda: reference.build_mfp(faults, topology, compute_rounds=False),
        ),
        "cmfp": (
            lambda: build_minimum_polygons(faults, topology=topology, compute_rounds=True),
            lambda: reference.build_cmfp(faults, topology),
        ),
        "dmfp": (
            lambda: build_minimum_polygons_distributed(faults, topology=topology),
            lambda: reference.build_dmfp(faults, topology),
        ),
    }
    report = {}
    for key, (builder, reference_builder) in builders.items():
        # Symmetric best-of-N on both paths so the speedup is unbiased.
        kernel_s, kernel_result = _best_time(builder, trials)
        legacy_s, legacy_result = _best_time(reference_builder, trials)
        problems = _compare(kernel_result, legacy_result)
        if problems:
            raise SystemExit(
                f"BENCH FAILED: {key} kernel/oracle mismatch: {', '.join(problems)}"
            )
        report[key] = {
            "kernel_seconds": kernel_s,
            "legacy_seconds": legacy_s,
            "speedup": legacy_s / kernel_s,
            "identical": True,
            "num_regions": len(kernel_result.regions),
            "disabled_nonfaulty": kernel_result.num_disabled_nonfaulty,
            "rounds": kernel_result.rounds,
        }
        print(
            f"{key:>5}: kernel {kernel_s * 1000:8.1f} ms   "
            f"legacy {legacy_s * 1000:8.1f} ms   "
            f"speedup {report[key]['speedup']:5.2f}x   identical"
        )
    return report


def bench_routing(scenario, topology, builds: int, messages: int, seed: int) -> dict:
    """Time instantiation-heavy routing sweeps (one router per fault batch).

    Sequential-fault sweeps rebuild the router after every construction
    update, so the per-instantiation cost -- previously a Python dict entry
    per region node plus a full-grid ``is_disabled`` scan -- is what the
    region-index fast path removes.  The routing scenario uses the paper's
    fault density (8%), where messages are cheap enough that instantiation
    overhead is visible, as it is in the real sweeps.
    """
    construction = build_minimum_polygons(
        scenario.faults, topology=topology, compute_rounds=False
    )
    router_spec = get_router("extended-ecube")
    uniform = get_traffic("uniform")

    def _instantiate():
        router = router_spec.build(construction)
        return router, TrafficContext.from_router(router)

    def _route_batch(batch_seed):
        router, context = _instantiate()
        batch = uniform.generate(context, messages, seed=batch_seed)
        return sum(
            1
            for source, destination in batch.pairs()
            if router.route(source, destination).delivered
        )

    def kernel_sweep():
        return sum(_route_batch(seed + build) for build in range(builds))

    def legacy_sweep():
        total = 0
        for build in range(builds):
            _seed_style_router_setup(topology, construction.regions)
            total += _route_batch(seed + build)
        return total

    def kernel_instantiate():
        for _ in range(builds):
            _instantiate()

    def legacy_instantiate():
        for _ in range(builds):
            _seed_style_router_setup(topology, construction.regions)

    kernel_inst_s, _ = _best_time(kernel_instantiate, 2)
    legacy_inst_s, _ = _best_time(legacy_instantiate, 2)
    kernel_s, kernel_delivered = _best_time(kernel_sweep, 1)
    legacy_s, legacy_delivered = _best_time(legacy_sweep, 1)
    if kernel_delivered != legacy_delivered:
        raise SystemExit("BENCH FAILED: routing sweeps disagree on deliveries")
    report = {
        "num_faults": len(scenario.faults),
        "instantiations": builds,
        "messages_per_instantiation": messages,
        "kernel_instantiation_seconds": kernel_inst_s,
        "legacy_instantiation_seconds": legacy_inst_s,
        "instantiation_speedup": legacy_inst_s / kernel_inst_s,
        "kernel_seconds": kernel_s,
        "legacy_seconds": legacy_s,
        "speedup": legacy_s / kernel_s,
        "delivered": int(kernel_delivered),
    }
    print(
        f"route: kernel {kernel_s * 1000:8.1f} ms   "
        f"legacy {legacy_s * 1000:8.1f} ms   "
        f"speedup {report['speedup']:5.2f}x end-to-end, "
        f"{report['instantiation_speedup']:5.2f}x instantiation   "
        f"({builds} routers x {messages} messages)"
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--width", type=int, default=300)
    parser.add_argument("--height", type=int, default=None)
    parser.add_argument("--num-faults", type=int, default=27000)
    parser.add_argument("--model", default="clustered")
    parser.add_argument("--cluster-factor", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--routing-builds", type=int, default=60)
    parser.add_argument("--routing-messages", type=int, default=200)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the MFP and CMFP construction speedups reach this bar",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    scenario = generate_scenario(
        num_faults=args.num_faults,
        width=args.width,
        height=args.height,
        model=args.model,
        seed=args.seed,
        cluster_factor=args.cluster_factor,
    )
    topology = scenario.topology()
    print(
        f"bench_kernel: {topology.width}x{topology.height} mesh, "
        f"{len(scenario.faults)} faults ({args.model}, "
        f"cluster_factor={args.cluster_factor}, seed={args.seed})"
    )

    constructions = bench_constructions(scenario, topology, args.trials)
    routing_scenario = generate_scenario(
        num_faults=max(1, int(topology.width * topology.height * 0.08)),
        width=args.width,
        height=args.height,
        model=args.model,
        seed=args.seed,
        cluster_factor=args.cluster_factor,
    )
    routing = bench_routing(
        routing_scenario,
        topology,
        args.routing_builds,
        args.routing_messages,
        args.seed,
    )

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    payload = {
        "schema": SCHEMA,
        "mesh": {"width": topology.width, "height": topology.height},
        "scenario": {
            "num_faults": len(scenario.faults),
            "model": args.model,
            "cluster_factor": args.cluster_factor,
            "seed": args.seed,
        },
        "trials": args.trials,
        "constructions": constructions,
        "routing": routing,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy_version,
            "array_backend": active_backend_key(),
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_speedup > 0:
        for key in ("mfp", "cmfp"):
            speedup = constructions[key]["speedup"]
            if speedup < args.min_speedup:
                print(
                    f"BENCH FAILED: {key} speedup {speedup:.2f}x "
                    f"< required {args.min_speedup:.2f}x"
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
