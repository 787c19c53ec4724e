#!/usr/bin/env python
"""Benchmark: the serving layer -- request coalescing and engine deltas.

Two sections, matching the acceptance bar of the serving subsystem:

**coalesce** -- drive one in-process :class:`repro.serve.RouteDaemon`
with N concurrent ``route`` requests (default 64), each carrying a small
batch of pairs (default 32 -- the shape of a simulator tick worth of
traffic), once with the micro-batching coalescer on (window + max-batch
triggers merge concurrent requests into one engine call) and once with
``max_batch=1`` (every request is its own engine call -- the
one-query-per-call baseline), and record sustained requests/second and
the coalesced/uncoalesced speedup.  The responses of the two runs must
be **bit-identical** per request; the benchmark exits non-zero when they
differ (``identical``).

**deltas** -- stream fault/repair churn into a warm session on a
clustered 100x100 mesh, routing a steady traffic mix after each event
(the warm-serving regime: the region working set is stable, faults
trickle in), and time ``update + route`` cycles with incremental engine
deltas (the default: jump tables and packed rings delta-patched from the
predecessor router) versus full rebuilds per update (the differential
oracle; :func:`full_rebuilds` makes the session's transplant seam
``repro.api.routing.transplant_engine_state`` a no-op).  The routed stats
of the two modes must be bit-identical (``identical``); the speedup is the
rebuild time over the delta time.

**overload** -- offer more load than the daemon admits: concurrent
clients hammer a daemon whose pending-pair queue is capped
(``max_pending``), once with admission control engaged (sheds respond
``overloaded`` + ``retry_after`` and the retrying clients back off) and
once with an effectively unbounded queue.  Recorded: shed rate and
p50/p99 completed-request latency in both modes.  Latencies are
timing-dependent and informational; the *stable* record -- every request
eventually completes through the retry path (``all_completed``) -- is
what the guard compares.

The measurements are written as machine-readable JSON (schema
``repro.bench_serve/v2``), by default to the gitignored
``benchmarks/results/runs/``.  The committed reference
``benchmarks/results/BENCH_serve.json`` is guarded by
``benchmarks/golden.py``, which re-runs the 100x100 configuration and
compares the bit-identity records, routed stats and overload-completion
records (timings are informational only and never compared).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py                        # full run
    PYTHONPATH=src python benchmarks/bench_serve.py \\
        --concurrency 16 --rounds 2 --delta-width 40                       # CI smoke
    python benchmarks/golden.py check serve                                # CI guard
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import platform
import sys
import time
from pathlib import Path
from unittest import mock

if __package__ in (None, ""):  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

import repro.api.routing as api_routing
from repro.api import MeshSession
from repro.faults.scenario import generate_scenario
from repro.serve import InProcessClient, RetryPolicy, RouteDaemon

SCHEMA = "repro.bench_serve/v2"
DEFAULT_OUT = Path(__file__).parent / "results" / "runs" / "serve.json"

STATS_FIELDS = (
    "attempted",
    "delivered",
    "failed",
    "total_hops",
    "total_detour",
    "minimal_routes",
    "abnormal_routes",
)


def stats_fields(stats) -> dict:
    return {field: getattr(stats, field) for field in STATS_FIELDS}


# -- section 1: request coalescing ---------------------------------------------------


def run_serving(scenario, requests, rounds: int, *, coalesce: bool):
    """Serve every request concurrently; return (seconds, routes, stats).

    One daemon serves ``rounds`` waves of ``len(requests)`` concurrent
    ``route`` requests (each a list of pairs); the wall-clock of the
    best wave is returned with the (identical across waves) per-request
    outcomes.
    """
    daemon = RouteDaemon(
        scenario=scenario,
        window=0.001,
        max_batch=4096 if coalesce else 1,
    )
    client = InProcessClient(daemon)

    async def wave():
        responses = await asyncio.gather(
            *(client.route(request) for request in requests)
        )
        return [response["routes"] for response in responses]

    async def main():
        best = float("inf")
        routes = None
        for _ in range(rounds):
            start = time.perf_counter()
            routes = await wave()
            best = min(best, time.perf_counter() - start)
        return best, routes, daemon.coalescer.stats.as_dict()

    return asyncio.run(main())


def bench_coalesce(args) -> dict:
    scenario = generate_scenario(
        num_faults=args.serve_faults,
        width=args.serve_width,
        model="clustered",
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    requests = [
        [
            [int(v) for v in rng.integers(0, args.serve_width, size=4)]
            for _ in range(args.pairs_per_request)
        ]
        for _ in range(args.concurrency)
    ]
    print(
        f"-- coalesce: {scenario.describe()}, concurrency {args.concurrency} x "
        f"{args.pairs_per_request} pairs, {args.rounds} rounds"
    )
    coalesced_s, coalesced_routes, coalesced_stats = run_serving(
        scenario, requests, args.rounds, coalesce=True
    )
    single_s, single_routes, single_stats = run_serving(
        scenario, requests, args.rounds, coalesce=False
    )
    identical = coalesced_routes == single_routes
    total_pairs = args.concurrency * args.pairs_per_request
    report = {
        "concurrency": args.concurrency,
        "pairs_per_request": args.pairs_per_request,
        "coalesced_seconds": coalesced_s,
        "uncoalesced_seconds": single_s,
        "coalesced_rps": args.concurrency / coalesced_s,
        "uncoalesced_rps": args.concurrency / single_s,
        "coalesced_pairs_per_second": total_pairs / coalesced_s,
        "uncoalesced_pairs_per_second": total_pairs / single_s,
        "speedup": single_s / coalesced_s,
        "coalesce_ratio": coalesced_stats["coalesce_ratio"],
        "identical": identical,
        "delivered": sum(
            1
            for routes in coalesced_routes
            for route in routes
            if route["delivered"]
        ),
    }
    print(
        f"   coalesced {coalesced_s * 1000:8.2f} ms "
        f"({report['coalesced_rps']:9.0f} req/s, ratio "
        f"{report['coalesce_ratio']:.1f})   one-per-call "
        f"{single_s * 1000:8.2f} ms ({report['uncoalesced_rps']:9.0f} req/s)   "
        f"speedup {report['speedup']:5.2f}x   identical {identical}"
    )
    return report


# -- section 2: incremental engine deltas --------------------------------------------


def churn_events(width: int, updates: int, seed: int):
    """Deterministic alternating add/repair churn for the delta section."""
    rng = np.random.default_rng(seed + 1)
    events = []
    injected = []
    for index in range(updates):
        if index % 3 == 2 and injected:
            events.append(("remove", [injected.pop(0)]))
        else:
            anchor = (int(rng.integers(1, width - 1)), int(rng.integers(1, width - 1)))
            cluster = [anchor, (anchor[0] + 1, anchor[1])]
            injected.extend(cluster)
            events.append(("add", cluster))
    return events


def full_rebuilds():
    """Make every router rebuild its engine state: nothing is transplanted."""
    return mock.patch.object(
        api_routing, "transplant_engine_state", lambda old_router, new_router: False
    )


def run_churn(scenario, events, messages: int, seed: int, *, deltas: bool):
    """Apply every churn event and route after each; time update+route."""
    with contextlib.nullcontext() if deltas else full_rebuilds():
        session = MeshSession.from_scenario(scenario)
        # Warm every cache on the initial fault set so the timed loop
        # measures updates, not first-touch construction.  The routed
        # traffic mix is the same after every event -- the warm-serving
        # regime, where the packed-ring working set is stable.
        session.route("mfp", messages=messages, seed=seed)
        fingerprints = []
        start = time.perf_counter()
        for kind, nodes in events:
            if kind == "add":
                session.add_faults(nodes)
            else:
                session.remove_faults(nodes)
            stats = session.route("mfp", messages=messages, seed=seed)
            fingerprints.append(stats_fields(stats))
        elapsed = time.perf_counter() - start
        info = dict(session.cache_info)
    return elapsed, fingerprints, info


def bench_ring_append(args) -> dict:
    """Progressive region encounters: incremental append vs full rebuild.

    ``PackedRings.ensure`` extends its flat arrays in place when a round
    encounters a new region; this times that path against the historical
    every-round re-concatenation (``PackedRings._rebuild``, the re-pack
    oracle, after every round) over the same encounter sequence, and
    checks the resulting arrays are bit-identical.
    """
    from repro.mesh.topology import Mesh2D
    from repro.routing.engine import PackedRings
    from repro.routing.extended_ecube import ExtendedECubeRouter

    rng = np.random.default_rng(args.seed + 3)
    width = args.delta_width
    regions, used = [], set()
    while len(regions) < args.ring_regions:
        x = int(rng.integers(1, width - 2))
        y = int(rng.integers(1, width - 1))
        cells = {(x, y), (x + 1, y)}
        if cells & used:
            continue
        used |= cells
        regions.append(sorted(cells))
    router = ExtendedECubeRouter(Mesh2D(width, width), regions)

    def encounter(force_rebuild: bool):
        rings = PackedRings(router)
        start = time.perf_counter()
        for index in range(len(regions)):
            rings.ensure(router, np.array([index]))
            if force_rebuild:
                rings._rebuild(router)
        return time.perf_counter() - start, rings

    encounter(False)  # warm the per-router ring geometry cache
    append_s, appended = encounter(False)
    rebuild_s, rebuilt = encounter(True)
    identical = all(
        np.array_equal(getattr(appended, name), getattr(rebuilt, name))
        for name in (
            "ring_x", "ring_y", "valid", "off_mesh", "geo_bits",
            "entry_keys", "entry_positions",
        )
    )
    report = {
        "regions": len(regions),
        "append_seconds": append_s,
        "rebuild_seconds": rebuild_s,
        "speedup": rebuild_s / append_s,
        "identical": identical,
    }
    print(
        f"   ring-append ({len(regions)} regions): append "
        f"{append_s * 1000:7.2f} ms   rebuild {rebuild_s * 1000:7.2f} ms   "
        f"speedup {report['speedup']:5.2f}x   identical {identical}"
    )
    return report


def bench_deltas(args) -> dict:
    scenario = generate_scenario(
        num_faults=args.delta_faults,
        width=args.delta_width,
        model="clustered",
        seed=args.seed,
    )
    events = churn_events(args.delta_width, args.updates, args.seed)
    print(
        f"-- deltas: {scenario.describe()}, {args.updates} updates, "
        f"{args.delta_messages} messages per route"
    )
    delta_s, delta_stats, delta_info = run_churn(
        scenario, events, args.delta_messages, args.seed, deltas=True
    )
    rebuild_s, rebuild_stats, rebuild_info = run_churn(
        scenario, events, args.delta_messages, args.seed, deltas=False
    )
    identical = delta_stats == rebuild_stats
    report = {
        "width": args.delta_width,
        "num_faults": args.delta_faults,
        "updates": args.updates,
        "messages": args.delta_messages,
        "delta_seconds": delta_s,
        "rebuild_seconds": rebuild_s,
        "updates_per_second_delta": args.updates / delta_s,
        "updates_per_second_rebuild": args.updates / rebuild_s,
        "speedup": rebuild_s / delta_s,
        "delta_applies": delta_info["delta_applies"],
        "jump_rebuilds_delta": delta_info["jump_rebuilds"],
        "jump_rebuilds_rebuild": rebuild_info["jump_rebuilds"],
        "identical": identical,
        "stats": delta_stats[-1],
    }
    print(
        f"   deltas {delta_s * 1000:8.2f} ms "
        f"({report['updates_per_second_delta']:7.1f} upd/s, "
        f"{report['delta_applies']} transplants)   rebuild "
        f"{rebuild_s * 1000:8.2f} ms "
        f"({report['updates_per_second_rebuild']:7.1f} upd/s)   "
        f"speedup {report['speedup']:5.2f}x   identical {identical}"
    )
    report["ring_append"] = bench_ring_append(args)
    return report


# -- section 3: overload and admission control ---------------------------------------


def run_overload(scenario, workloads, *, admission: bool, max_pending: int):
    """Offer every workload concurrently; return latency/shed measurements.

    Each workload is one client's list of route requests, issued
    sequentially with unbounded (deadline-capped) retries on
    ``overloaded`` sheds.  With *admission* the daemon's pending-pair
    queue is capped at *max_pending*; without, the cap is effectively
    infinite (nothing sheds, everything queues).
    """
    daemon = RouteDaemon(
        scenario=scenario,
        window=0.0005,
        max_batch=512,
        max_pending=max_pending if admission else 2**31,
    )
    client = InProcessClient(daemon)
    policy = RetryPolicy(
        max_attempts=None,
        base_delay=0.001,
        max_delay=0.05,
        jitter=0.0,
        deadline=120.0,
    )
    latencies = []
    attempts = 0

    async def worker(requests):
        nonlocal attempts
        for pairs in requests:
            schedule = policy.schedule()
            start = time.perf_counter()
            while True:
                attempts += 1
                response = await client.request({"op": "route", "pairs": pairs})
                if response["ok"]:
                    break
                if response["error"]["code"] != "overloaded":
                    raise RuntimeError(f"unexpected error: {response['error']}")
                delay = schedule.next_delay()
                if delay is None:
                    raise RuntimeError("retry deadline exhausted under overload")
                await asyncio.sleep(
                    max(delay, response["error"].get("retry_after", 0.0))
                )
            latencies.append(time.perf_counter() - start)

    async def main():
        start = time.perf_counter()
        await asyncio.gather(*(worker(requests) for requests in workloads))
        return time.perf_counter() - start

    elapsed = asyncio.run(main())
    offered = sum(len(requests) for requests in workloads)
    return {
        "elapsed_seconds": elapsed,
        "completed": len(latencies),
        "all_completed": len(latencies) == offered,
        "attempts": attempts,
        "shed_requests": daemon.shed_requests,
        "shed_rate": daemon.shed_requests / attempts if attempts else 0.0,
        "p50_latency_ms": float(np.percentile(latencies, 50)) * 1000,
        "p99_latency_ms": float(np.percentile(latencies, 99)) * 1000,
    }


def bench_overload(args) -> dict:
    scenario = generate_scenario(
        num_faults=args.serve_faults,
        width=args.serve_width,
        model="clustered",
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed + 2)
    workloads = [
        [
            [
                [int(v) for v in rng.integers(0, args.serve_width, size=4)]
                for _ in range(args.overload_pairs)
            ]
            for _ in range(args.overload_requests)
        ]
        for _ in range(args.overload_clients)
    ]
    offered = args.overload_clients * args.overload_requests
    print(
        f"-- overload: {scenario.describe()}, {args.overload_clients} clients x "
        f"{args.overload_requests} requests x {args.overload_pairs} pairs "
        f"(queue cap {args.overload_max_pending} pairs)"
    )
    shedding = run_overload(
        scenario, workloads, admission=True, max_pending=args.overload_max_pending
    )
    unbounded = run_overload(
        scenario, workloads, admission=False, max_pending=args.overload_max_pending
    )
    report = {
        "clients": args.overload_clients,
        "requests_per_client": args.overload_requests,
        "pairs_per_request": args.overload_pairs,
        "max_pending": args.overload_max_pending,
        "offered": offered,
        "with_admission": shedding,
        "without_admission": unbounded,
        "all_completed": shedding["all_completed"] and unbounded["all_completed"],
    }
    for label, run in (("admission", shedding), ("unbounded", unbounded)):
        print(
            f"   {label:>9}: shed {run['shed_rate'] * 100:5.1f}% "
            f"({run['shed_requests']}/{run['attempts']} attempts)   "
            f"p50 {run['p50_latency_ms']:7.2f} ms   "
            f"p99 {run['p99_latency_ms']:7.2f} ms   "
            f"completed {run['completed']}/{offered}"
        )
    return report


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--concurrency", type=int, default=64,
        help="concurrent route requests per wave (acceptance bar: 64)",
    )
    parser.add_argument(
        "--pairs-per-request", type=int, default=32,
        help="pairs carried by each route request (a tick worth of traffic)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="waves per mode (best is kept)"
    )
    parser.add_argument(
        "--serve-width", type=int, default=100,
        help="mesh width of the coalesce section",
    )
    parser.add_argument(
        "--serve-faults", type=int, default=400,
        help="faults of the coalesce-section scenario",
    )
    parser.add_argument(
        "--delta-width", type=int, default=100,
        help="mesh width of the delta section (acceptance bar: 100)",
    )
    parser.add_argument(
        "--delta-faults", type=int, default=800,
        help="initial faults of the delta-section scenario",
    )
    parser.add_argument(
        "--updates", type=int, default=12, help="churn events in the delta section"
    )
    parser.add_argument(
        "--ring-regions", type=int, default=64,
        help="regions encountered one-by-one in the ring-append "
        "measurement of the delta section",
    )
    parser.add_argument(
        "--delta-messages", type=int, default=128,
        help="messages routed after each update (small, so update cost "
        "dominates the timing)",
    )
    parser.add_argument(
        "--overload-clients", type=int, default=32,
        help="concurrent clients of the overload section",
    )
    parser.add_argument(
        "--overload-requests", type=int, default=8,
        help="sequential route requests per overload client",
    )
    parser.add_argument(
        "--overload-pairs", type=int, default=16,
        help="pairs carried by each overload request",
    )
    parser.add_argument(
        "--overload-max-pending", type=int, default=64,
        help="pending-pair queue cap of the admission-controlled run "
        "(kept below clients x pairs so the offered load genuinely "
        "exceeds capacity)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    coalesce = bench_coalesce(args)
    deltas = bench_deltas(args)
    overload = bench_overload(args)
    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "concurrency": args.concurrency,
            "pairs_per_request": args.pairs_per_request,
            "rounds": args.rounds,
            "serve_width": args.serve_width,
            "serve_faults": args.serve_faults,
            "delta_width": args.delta_width,
            "delta_faults": args.delta_faults,
            "updates": args.updates,
            "delta_messages": args.delta_messages,
            "overload_clients": args.overload_clients,
            "overload_requests": args.overload_requests,
            "overload_pairs": args.overload_pairs,
            "overload_max_pending": args.overload_max_pending,
            "seed": args.seed,
            "construction": "mfp",
            "router": "extended-ecube",
        },
        "coalesce": coalesce,
        "deltas": deltas,
        "overload": overload,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[written to {args.out}]")

    exit_code = 0
    if not coalesce["identical"]:
        print("SERVE MISMATCH: coalesced responses differ from one-per-call")
        exit_code = 1
    if not deltas["identical"]:
        print("DELTA MISMATCH: delta-patched stats differ from full rebuilds")
        exit_code = 1
    if not deltas["ring_append"]["identical"]:
        print("RING MISMATCH: appended packed rings differ from a full rebuild")
        exit_code = 1
    if not overload["all_completed"]:
        print("OVERLOAD FAILURE: some requests never completed through retries")
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
