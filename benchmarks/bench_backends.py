#!/usr/bin/env python
"""Benchmark: the NumPy hot primitives against their loop-nest reference.

Times both primitive sets -- ``numpy`` (:data:`repro._array_ops.NUMPY_OPS`,
what the library runs) and ``loops`` (:data:`repro._array_loops.OPS`, the
reference the differential tests pin it against) -- on three workloads: a
1000x1000 component labelling + orthogonal-convex-hull round, a
10^6-message batch-routing run, and a 64x64 open-loop netsim round.  The
routing and netsim workloads reach the primitives through the library, so
the reference is swapped in through the ``_array_ops.active_ops`` seam.
Both sets must be **bit-identical**: the benchmark exits non-zero when
the reference's results differ from the numpy baseline.

Every primitive set runs each workload once (priming session caches)
before the timed best-of-``--repeats`` passes.

The measurements are written as machine-readable JSON (schema
``repro.bench_backends/v1``), by default to the gitignored
``benchmarks/results/runs/``.  The committed reference
``benchmarks/results/BENCH_backends.json`` is guarded by
``benchmarks/golden.py``, which re-runs the full workloads on numpy and
compares their result stats (timings are informational only and never
compared).

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py                     # full run
    PYTHONPATH=src python benchmarks/bench_backends.py \\
        --mask-width 128 --messages 5000 --netsim-cycles 32                # CI smoke
    python benchmarks/golden.py check backends                             # CI guard
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

if __package__ in (None, ""):  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

from repro import _array_loops, _array_ops
from repro.api import MeshSession
from repro.faults.scenario import generate_scenario

SCHEMA = "repro.bench_backends/v1"
DEFAULT_OUT = Path(__file__).parent / "results" / "runs" / "backends.json"

#: The primitive sets this benchmark times, by ``ArrayOps.key``.
OPS = {ops.key: ops for ops in (_array_ops.NUMPY_OPS, _array_loops.OPS)}

#: RoutingStats fields that must be bit-identical across backends.
STATS_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)


@contextmanager
def running(ops):
    """Run the library on *ops* by replacing the ``active_ops`` seam."""
    original = _array_ops.active_ops
    _array_ops.active_ops = lambda: ops
    try:
        yield
    finally:
        _array_ops.active_ops = original


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def bench_labelling_hull(args, backends) -> dict:
    """One labelling + hull round over a random ``--mask-width`` sq. mask."""
    rng = np.random.default_rng(args.seed)
    mask = rng.random((args.mask_width, args.mask_width)) < args.fill
    reports = {}
    for key in backends:
        ops = OPS[key]

        def round_trip(ops=ops):
            labels, count = ops.label_components(mask, 4)
            return labels, count, ops.hull_fixpoint(mask)

        labels, count, hull = round_trip()  # warm-up
        seconds = _best_of(args.repeats, round_trip)
        reports[key] = {
            "seconds": seconds,
            "stats": {"components": int(count), "hull_cells": int(hull.sum())},
            "_labels": labels,
            "_hull": hull,
        }
    base = reports["numpy"]
    for report in reports.values():
        report["identical"] = bool(
            np.array_equal(report["_labels"], base["_labels"])
            and np.array_equal(report["_hull"], base["_hull"])
            and report["stats"] == base["stats"]
        )
    for report in reports.values():
        report.pop("_labels")
        report.pop("_hull")
        report["speedup_vs_numpy"] = base["seconds"] / report["seconds"]
    return {
        "label": f"{args.mask_width}x{args.mask_width} labelling + hull fixpoint",
        "backends": reports,
    }


def bench_batch_routing(args, backends) -> dict:
    """One ``--messages``-message batch-routing run on a 100x100 mesh."""
    scenario = generate_scenario(
        num_faults=args.route_faults, width=args.route_width, seed=args.seed
    )
    session = MeshSession.from_scenario(scenario)
    reports = {}
    for key in backends:
        route = dict(traffic="uniform", messages=args.messages, seed=args.seed)
        with running(OPS[key]):
            # Warm-up: prime the session caches (construction, router,
            # rings, jump tables).
            session.route("mfp", **{**route, "messages": min(args.messages, 1000)})
            seconds = _best_of(args.repeats, lambda: session.route("mfp", **route))
            stats = session.route("mfp", **route)
        reports[key] = {
            "seconds": seconds,
            "messages_per_second": args.messages / seconds,
            "stats": {field: getattr(stats, field) for field in STATS_FIELDS},
        }
    base = reports["numpy"]
    for report in reports.values():
        report["identical"] = report["stats"] == base["stats"]
        report["speedup_vs_numpy"] = base["seconds"] / report["seconds"]
    return {
        "label": (
            f"{args.messages} uniform messages, batch engine, "
            f"{args.route_width}x{args.route_width} mesh, "
            f"{args.route_faults} faults"
        ),
        "backends": reports,
    }


def bench_netsim_round(args, backends) -> dict:
    """One open-loop contention round on a ``--netsim-width`` sq. mesh."""
    scenario = generate_scenario(
        num_faults=args.netsim_faults, width=args.netsim_width, seed=args.seed
    )
    session = MeshSession.from_scenario(scenario)
    reports = {}
    for key in backends:
        simulate = dict(
            load=args.netsim_load,
            cycles=args.netsim_cycles,
            seed=args.seed,
        )
        with running(OPS[key]):
            warm = session.simulate("mfp", **simulate)  # warm-up (caches)
            seconds = _best_of(
                args.repeats, lambda: session.simulate("mfp", **simulate)
            )
        reports[key] = {
            "seconds": seconds,
            "stats": {
                "attempted": warm.attempted,
                "delivered": warm.delivered,
                "total_latency": warm.total_latency,
                "cycles_run": warm.cycles_run,
                "fingerprint": warm.delivery_fingerprint,
            },
        }
    base = reports["numpy"]
    for report in reports.values():
        report["identical"] = report["stats"] == base["stats"]
        report["speedup_vs_numpy"] = base["seconds"] / report["seconds"]
    return {
        "label": (
            f"{args.netsim_width}x{args.netsim_width} netsim round, "
            f"load {args.netsim_load}, {args.netsim_cycles} cycles"
        ),
        "backends": reports,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--backends", nargs="+", choices=tuple(OPS), default=list(OPS),
        help="primitive sets to measure (default: all)",
    )
    parser.add_argument("--mask-width", type=int, default=1000)
    parser.add_argument(
        "--fill", type=float, default=0.3, help="mask occupancy fraction"
    )
    parser.add_argument("--messages", type=int, default=1_000_000)
    parser.add_argument("--route-width", type=int, default=100)
    parser.add_argument("--route-faults", type=int, default=400)
    parser.add_argument("--netsim-width", type=int, default=64)
    parser.add_argument("--netsim-faults", type=int, default=120)
    parser.add_argument("--netsim-load", type=float, default=0.05)
    parser.add_argument("--netsim-cycles", type=int, default=128)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    print(f"measuring: {', '.join(args.backends)}")

    workloads = {}
    for name, bench in (
        ("labelling_hull", bench_labelling_hull),
        ("batch_routing", bench_batch_routing),
        ("netsim_round", bench_netsim_round),
    ):
        workload = bench(args, args.backends)
        workloads[name] = workload
        print(f"-- {name}: {workload['label']}")
        for backend, report in workload["backends"].items():
            print(
                f"{backend:>8} {report['seconds'] * 1000:10.2f} ms   "
                f"vs numpy {report['speedup_vs_numpy']:6.2f}x   "
                f"identical {report['identical']}"
            )

    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "measured": list(args.backends),
        "config": {
            "mask_width": args.mask_width,
            "fill": args.fill,
            "messages": args.messages,
            "route_width": args.route_width,
            "route_faults": args.route_faults,
            "netsim_width": args.netsim_width,
            "netsim_faults": args.netsim_faults,
            "netsim_load": args.netsim_load,
            "netsim_cycles": args.netsim_cycles,
            "seed": args.seed,
            "repeats": args.repeats,
        },
        "workloads": workloads,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[written to {args.out}]")

    exit_code = 0
    for name, workload in workloads.items():
        for backend, report in workload["backends"].items():
            if not report["identical"]:
                print(
                    f"BACKEND MISMATCH at {name}/{backend}: results differ "
                    "from the numpy baseline"
                )
                exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
