"""Pipeline benchmark: one workload per process, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` runs the workload once untraced (the throughput baseline)
and once with every layer entry point wrapped, and reports the per-layer
breakdown plus the tracing overhead.  The human-readable report goes
first; the last stdout line is the JSON result.  Outputs are checked
against the repo's own oracles after the timed region; a failed check
makes ``correct`` false and the exit code 1.  See ``perfbench/NOTES.md``
for why each workload exists and which layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("paper-sweep", "route-300", "netsim-64", "serve-churn")

#: Percentile reported as ``op_tail_ms``: one with at least ten samples
#: beyond it in the fastest windows of a 40-s run where there is one
#: (serve-churn, paper-sweep); route-300 and netsim-64 time too few
#: operations for that, so p90 there tracks their slowest operation class.
TAIL_PERCENTILE = {"paper-sweep": 90, "route-300": 90, "netsim-64": 90,
                   "serve-churn": 99}

#: What one timed operation is, per workload (for the report).
OPERATION = {
    "paper-sweep": "SweepExecutor.run of one trial",
    "route-300": "MeshSession.route of one batch",
    "netsim-64": "MeshSession.simulate of one load point",
    "serve-churn": "route request, write to response",
}

#: Set-up repetitions of an end-to-end run; ``setup_s`` is their median.
#: The listed workloads set up in 0.05-0.2 s, so nine cost about a second.
SETUPS = 9


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository.

    The ceiling keeps git from searching the directories above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def digest(items: Any) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def scaled_rate(workloads, windows) -> float:
    """Throughput of the fastest windows at the reference machine speed."""
    rate, _, _, speed = workloads.fastest(windows)
    return rate / speed


def end_to_end(workload: str, m, workloads) -> Tuple[Dict, Dict]:
    """The JSON metrics, and the report-only figures they come from.

    The timings cover the run's fastest windows and are scaled to the
    reference machine speed measured by the probes taken in those windows
    (set-up: by the probes taken right after each set-up).  The report
    also prints them as timed, and over the whole run, where a change that
    adds stalls shows while the fastest windows skip them.
    """
    rate, latencies, count, speed = workloads.fastest(m.windows)
    setup_speed = workloads.speed(m.setup_probes_ms)
    windows = "runs of 512 completions" if workload == "serve-churn" else "passes"
    chosen = f"fastest {count} of {len(m.windows)} {windows}"
    q = TAIL_PERCENTILE[workload]
    setup, p50, tail = median(m.setup_s), percentile(latencies, 50), percentile(latencies, q)
    metrics = {
        "setup_s": (setup * setup_speed, "s", f"median of {len(m.setup_s)} set-ups"),
        "ops_per_s": (rate / speed, "1/s", chosen),
        "op_p50_ms": (p50 * speed, "ms", f"{len(latencies)} ops, {chosen}"),
        "op_tail_ms": (tail * speed, "ms", f"p{q} of {len(latencies)} ops, {chosen}"),
        "peak_rss_mib": (m.peak_rss_mib, "MiB",
                         "daemon process" if workload == "serve-churn" else "1 process"),
    }
    unit_name = workloads.OP_NAMES[workload][0]
    probes = sum(len(w.probes_ms) for w in m.windows)
    report = {
        "machine.speed": (speed, "ratio", f"mean over the fastest windows' probes "
                          f"({probes} in the run); {setup_speed:.3f} at set-up"),
        "timed.setup_s": (setup, "s", "as timed"),
        "timed.ops_per_s": (rate, "1/s", "as timed"),
        "timed.op_p50_ms": (p50, "ms", "as timed"),
        "timed.op_tail_ms": (tail, "ms", "as timed"),
        "all.ops_per_s": (m.ops / m.elapsed_s, "1/s",
                          f"as timed, {m.ops} {unit_name} in {m.elapsed_s:.3f} s"),
        "all.op_p50_ms": (percentile(m.latencies_ms, 50), "ms",
                          f"as timed, {len(m.latencies_ms)} ops"),
        "all.op_tail_ms": (percentile(m.latencies_ms, q), "ms",
                           f"as timed, p{q} of {len(m.latencies_ms)} ops"),
    }
    return metrics, report


def run_untraced(args, workloads) -> Tuple[Any, Dict[str, Tuple[float, str, str]], list]:
    run, check = workloads.RUNNERS[args.workload]
    m = run(args.seed, args.seconds, args.scale, SETUPS)
    checks = check(m)
    metrics, report = end_to_end(args.workload, m, workloads)
    m.extras.update(report)
    return m, metrics, checks


def run_traced(args, workloads, tracing) -> Tuple[Any, Dict[str, Tuple[float, str, str]], list]:
    run, check = workloads.RUNNERS[args.workload]
    expected = workloads.EXPECTED_SPANS[args.workload]
    if args.workload == "serve-churn":
        m = run(args.seed, args.seconds, args.scale, 1, trace=True)
        trace = m.state["final"]["trace"]
        delta = m.state["trace_counters"]
        cache = {k[len("cache."):]: v for k, v in delta.items() if k.startswith("cache.")}
        status = {
            "serve.flushes": delta["flushes"],
            "serve.coalesce_ratio": delta["requests"] / delta["flushes"]
            if delta["flushes"] else 0.0,
            "serve.shed": delta["shed"],
            "serve.expired": delta["expired"],
            "serve.degraded_flushes": delta["degraded"],
            "serve.journal_bytes": delta["journal_bytes"],
        }
        # The daemon traces the traced request window only, the window the
        # status deltas cover; its spans are set against its CPU time there,
        # because it idles between coroutines while serving.
        cpu = sum(cpu for _, cpu in trace["windows"])
        layers = tracing.layer_metrics(trace, reference_s=cpu, cache_info=cache,
                                       serve_status=status)
        baseline = scaled_rate(workloads, m.state["baseline"])
        repeat = []
    else:
        baseline_m = run(args.seed, args.seconds, args.scale, 1)
        baseline = scaled_rate(workloads, baseline_m.windows)
        baseline_m.state.clear()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.activate()
        m = run(args.seed, args.seconds, args.scale, 1)
        tracer.deactivate()
        trace = tracer.aggregate()
        layers = tracing.layer_metrics(
            trace, reference_s=tracer.windows[0][0], cache_info=m.state.get("cache_info")
        )
        tracer.dump(workloads.WORK / f"trace-{args.workload}.jsonl")
        repeat = [("digest repeats across the untraced and traced passes",
                   digest(baseline_m.digest_items) == digest(m.digest_items), "")]
    layers["trace.overhead_frac"] = 1.0 - scaled_rate(workloads, m.windows) / baseline
    missing = tracing.expected_spans_missing(trace, expected)
    checks = check(m) + repeat + [(
        "every expected span recorded calls", not missing,
        f"missing {missing}" if missing else f"{len(expected)} spans",
    )]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    calls = trace["calls"]
    report = {
        name: (value, units[name], f"{calls.get(name[:-2], 0)} spans"
               if name.endswith("_s") else "")
        for name, value in layers.items()
    }
    return m, report, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    toggles = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if toggles:
        print(f"error: refusing to run with implementation variables set: {toggles}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import tracing
    import workloads

    unit_name, issue_name = workloads.OP_NAMES[args.workload]
    started = time.perf_counter()
    if args.trace:
        m, metrics, checks = run_traced(args, workloads, tracing)
    else:
        m, metrics, checks = run_untraced(args, workloads)
    correct = all(ok for _, ok, _ in checks) and m.failed == 0

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  scale={args.scale}  wall={time.perf_counter() - started:.1f}s")
    print(f"# python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} commit={git_commit()} "
          + " ".join(f"{key}={value}" for key, value in sorted(m.labels.items())))
    print(f"# operation: {OPERATION[args.workload]}; ops_per_s counts {unit_name} "
          f"({issue_name})")
    rows = list(metrics.items())
    if not args.trace:
        rows += list(m.extras.items())
    for name, (value, unit, samples) in rows:
        print(f"  {name:<32} {value:>16.6g} {unit:<6} {samples}")
    for name, ok, detail in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for error in m.errors:
        print(f"# error: {error}")
    print(f"# digest {digest(m.digest_items)}")
    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
