#!/usr/bin/env python
"""Benchmark: the campaign fabric -- resume identity, skip cost, flat RSS.

Three sections, matching the acceptance bar of the campaign subsystem
(ROADMAP item 5, statistical scale):

**resume** -- run one construction campaign twice: uninterrupted, and
interrupted after a handful of tasks (``max_tasks``) then resumed from
the store.  The reduced sweep points of the two runs must be
**bit-identical** (``identical``): the content-addressed store skips
completed trials and the streaming reducer folds rows in (point, trial)
order, so where a trial ran -- first process, resumed process, another
worker -- never shows in the reduction.

**rerun** -- re-run the completed campaign against its own store.  Every
trial key is already present, so the rerun must skip >= 99% of the plan
(``skip_fraction``) and cost ~no trial executions (``executed``).

**rss** -- execute a large campaign (default 100k trials) and a small
one (default 100 trials) in fresh subprocesses and compare the *parent*
process's peak RSS (``ru_maxrss``).  Workers encode rows to packed
structured arrays and the parent streams bounded chunks straight to
disk, so parent memory must stay flat (``flat``: within 2x) however
many trials the campaign holds -- the ``pool.map``-era parent
materialized every result object instead.

A fourth **reference** record reduces a small fixed campaign to
per-point means and 95% confidence intervals; ``--compare`` checks a
run's reference points against a previously committed
``BENCH_campaign.json`` bit-for-bit (the CI stats guard -- trials are
deterministic, so the folded moments are too).

With ``--artifact-dir`` the large RSS run doubles as the committed
campaign artifact build: its manifest and reduced points (with CIs) are
copied/written there (chunk payloads stay out of git; the manifest
records their hashes and row counts).

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py                  # full run
    PYTHONPATH=src python benchmarks/bench_campaign.py \\
        --trials 10 --rss-trials 2000 --out /tmp/campaign.json          # CI smoke
    PYTHONPATH=src python benchmarks/bench_campaign.py --trials 10 \\
        --rss-trials 2000 --compare benchmarks/results/BENCH_campaign.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

from repro.campaign import CampaignRunner, CampaignSpec

SCHEMA = "repro.bench_campaign/v1"
DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_campaign.json"

#: The model set of every benchmark campaign (the paper's core trio).
MODELS = ("fb", "fp", "mfp")


def construction_spec(fault_counts, trials, width, seed):
    return CampaignSpec.create(
        "construction",
        fault_counts,
        trials,
        models=MODELS,
        width=width,
        base_seed=seed,
        include_rounds=False,
    )


def reduced_record(runner: CampaignRunner) -> list:
    """JSON-ready per-point means and 95% CIs from the streaming fold."""
    return [
        {
            "point": point.point,
            "x": point.x,
            "n": point.n,
            "stats": {
                column: {
                    "mean": moments.mean,
                    "ci95": moments.ci95,
                    "count": moments.count,
                }
                for column, moments in sorted(point.stats.items())
            },
        }
        for point in runner.reduce()
    ]


# -- section 1: interrupted + resumed == uninterrupted -------------------------------


def bench_resume(args) -> dict:
    spec = construction_spec(args.fault_counts, args.trials, args.width, args.seed)
    print(
        f"-- resume: construction campaign, {len(args.fault_counts)} points x "
        f"{args.trials} trials, width {args.width}"
    )
    # Small chunks so the interruption genuinely lands mid-campaign
    # (~40% of the plan dispatched before the cut).
    chunk = max(1, spec.total_trials // 10)
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        start = time.perf_counter()
        clean = CampaignRunner(spec, Path(tmp) / "clean", chunk_trials=chunk)
        clean_summary = clean.run()
        clean_seconds = time.perf_counter() - start
        clean_points = clean.sweep_points()
        clean_reduced = reduced_record(clean)
        clean.close()

        interrupted = CampaignRunner(
            spec,
            Path(tmp) / "resumed",
            chunk_trials=chunk,
            max_tasks=4,
        )
        partial_summary = interrupted.run()
        interrupted.close()
        resumed = CampaignRunner(None, Path(tmp) / "resumed", chunk_trials=chunk)
        resumed_summary = resumed.run()
        resumed_points = resumed.sweep_points()
        resumed_reduced = reduced_record(resumed)
        resumed.close()

    identical = clean_points == resumed_points and clean_reduced == resumed_reduced
    report = {
        "fingerprint": spec.fingerprint(),
        "planned": clean_summary["planned"],
        "interrupted_after": partial_summary["executed"],
        "resumed_skipped": resumed_summary["skipped"],
        "clean_seconds": clean_seconds,
        "identical": identical,
        "complete": clean_summary["complete"] and resumed_summary["complete"],
    }
    print(
        f"   clean {clean_seconds * 1000:8.2f} ms for "
        f"{clean_summary['planned']} trials   interrupted after "
        f"{partial_summary['executed']}, resume skipped "
        f"{resumed_summary['skipped']}   identical {identical}"
    )
    return report


# -- section 2: reruns are ~free -----------------------------------------------------


def bench_rerun(args) -> dict:
    spec = construction_spec(args.fault_counts, args.trials, args.width, args.seed)
    print(
        f"-- rerun: same campaign against its own completed store"
    )
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        store = Path(tmp) / "store"
        start = time.perf_counter()
        first = CampaignRunner(spec, store, chunk_trials=args.chunk_trials)
        first_summary = first.run()
        first.close()
        first_seconds = time.perf_counter() - start

        start = time.perf_counter()
        rerun = CampaignRunner(spec, store, chunk_trials=args.chunk_trials)
        rerun_summary = rerun.run()
        rerun.close()
        rerun_seconds = time.perf_counter() - start

    skip_fraction = (
        rerun_summary["skipped"] / rerun_summary["planned"]
        if rerun_summary["planned"]
        else 0.0
    )
    report = {
        "planned": rerun_summary["planned"],
        "first_seconds": first_seconds,
        "rerun_seconds": rerun_seconds,
        "rerun_executed": rerun_summary["executed"],
        "skip_fraction": skip_fraction,
        "speedup": first_seconds / rerun_seconds if rerun_seconds else float("inf"),
    }
    print(
        f"   first {first_seconds * 1000:8.2f} ms   rerun "
        f"{rerun_seconds * 1000:8.2f} ms (executed "
        f"{rerun_summary['executed']}, skipped {skip_fraction * 100:.1f}%)   "
        f"speedup {report['speedup']:6.1f}x"
    )
    return report


# -- section 3: parent RSS stays flat ------------------------------------------------


def run_rss_child(args) -> int:
    """``--rss-child``: run one campaign, print parent-process peak RSS."""
    spec = construction_spec(
        args.fault_counts, args.rss_child_trials, args.width, args.seed
    )
    runner = CampaignRunner(
        spec, args.rss_child_store, chunk_trials=args.chunk_trials
    )
    start = time.perf_counter()
    summary = runner.run()
    elapsed = time.perf_counter() - start
    runner.close()
    # Linux reports ru_maxrss in KiB; workers are separate processes, so
    # this is exactly the streaming parent the flat-RSS claim is about.
    print(
        json.dumps(
            {
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "planned": summary["planned"],
                "executed": summary["executed"],
                "complete": summary["complete"],
                "elapsed_seconds": elapsed,
            }
        )
    )
    return 0 if summary["complete"] else 1


def _spawn_rss_child(args, trials: int, store: Path) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--rss-child",
        "--rss-child-trials", str(trials),
        "--rss-child-store", str(store),
        "--width", str(args.width),
        "--seed", str(args.seed),
        "--chunk-trials", str(args.chunk_trials),
        "--fault-counts", *[str(n) for n in args.fault_counts],
    ]
    result = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def bench_rss(args, artifact_store: Path | None) -> dict:
    total = args.rss_trials * len(args.fault_counts)
    print(
        f"-- rss: {total} trials vs {args.rss_baseline_trials * len(args.fault_counts)}"
        f" trials, parent peak RSS (fresh subprocess each)"
    )
    with tempfile.TemporaryDirectory(prefix="bench-campaign-rss-") as tmp:
        big_store = artifact_store if artifact_store is not None else Path(tmp) / "big"
        big = _spawn_rss_child(args, args.rss_trials, big_store)
        small = _spawn_rss_child(
            args, args.rss_baseline_trials, Path(tmp) / "small"
        )
    ratio = big["maxrss_kb"] / small["maxrss_kb"] if small["maxrss_kb"] else 0.0
    report = {
        "large_trials": big["planned"],
        "small_trials": small["planned"],
        "large_maxrss_kb": big["maxrss_kb"],
        "small_maxrss_kb": small["maxrss_kb"],
        "large_elapsed_seconds": big["elapsed_seconds"],
        "rss_ratio": ratio,
        "flat": ratio <= 2.0,
        "complete": big["complete"] and small["complete"],
    }
    print(
        f"   {big['planned']} trials: {big['maxrss_kb'] / 1024:7.1f} MiB "
        f"in {big['elapsed_seconds']:.1f}s   {small['planned']} trials: "
        f"{small['maxrss_kb'] / 1024:7.1f} MiB   ratio {ratio:5.2f}x   "
        f"flat {report['flat']}"
    )
    return report


# -- section 4: committed stats reference --------------------------------------------

#: Fixed configuration of the reference campaign the CI stats guard
#: re-runs; changing it invalidates committed references on purpose.
REFERENCE_CONFIG = {
    "fault_counts": [4, 8],
    "trials": 25,
    "width": 12,
    "seed": 7,
}


def bench_reference() -> dict:
    spec = construction_spec(
        REFERENCE_CONFIG["fault_counts"],
        REFERENCE_CONFIG["trials"],
        REFERENCE_CONFIG["width"],
        REFERENCE_CONFIG["seed"],
    )
    print(
        f"-- reference: fixed {len(REFERENCE_CONFIG['fault_counts'])}x"
        f"{REFERENCE_CONFIG['trials']} campaign for the stats guard"
    )
    with tempfile.TemporaryDirectory(prefix="bench-campaign-ref-") as tmp:
        runner = CampaignRunner(spec, Path(tmp) / "store")
        runner.run()
        points = reduced_record(runner)
        runner.close()
    report = {
        "config": dict(REFERENCE_CONFIG),
        "fingerprint": spec.fingerprint(),
        "points": points,
    }
    first = points[0]["stats"]["MFP.disabled_nonfaulty"]
    print(
        f"   fingerprint {spec.fingerprint()[:16]}...   "
        f"MFP.disabled_nonfaulty @ x={points[0]['x']:g}: "
        f"{first['mean']:.3f} +/- {first['ci95']:.3f}"
    )
    return report


# -- artifact ------------------------------------------------------------------------


def write_artifact(args, big_store: Path) -> dict:
    """Copy the manifest + write reduced points of the large campaign."""
    artifact = Path(args.artifact_dir)
    artifact.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(big_store / "manifest.jsonl", artifact / "manifest.jsonl")
    runner = CampaignRunner(None, big_store)
    spec = runner.spec
    reduced = {
        "schema": "repro.campaign.reduced/v1",
        "fingerprint": spec.fingerprint(),
        "spec": spec.canonical(),
        "total_trials": spec.total_trials,
        "points": reduced_record(runner),
    }
    runner.close()
    (artifact / "reduced.json").write_text(json.dumps(reduced, indent=2) + "\n")
    print(
        f"[artifact: manifest + reduced points for {spec.total_trials} trials "
        f"-> {artifact}]"
    )
    return {"dir": str(artifact), "total_trials": spec.total_trials}


# -- guard and entry point -----------------------------------------------------------


def compare_reference(payload: dict, reference_path: Path) -> int:
    """Assert identity/skip/RSS records and reference stats reproduce."""
    reference = json.loads(reference_path.read_text())
    mismatches = 0
    ours_resume, ref_resume = payload.get("resume"), reference.get("resume")
    if ours_resume and ref_resume:
        if not ours_resume["identical"] or not ref_resume["identical"]:
            mismatches += 1
            print("IDENTITY REGRESSION: resumed != uninterrupted")
    ours_rerun, ref_rerun = payload.get("rerun"), reference.get("rerun")
    if ours_rerun and ref_rerun:
        if ours_rerun["skip_fraction"] < 0.99 or ref_rerun["skip_fraction"] < 0.99:
            mismatches += 1
            print("SKIP REGRESSION: rerun executed > 1% of the plan")
    ours_rss, ref_rss = payload.get("rss"), reference.get("rss")
    if ours_rss and ref_rss:
        if not ours_rss["flat"]:
            mismatches += 1
            print(
                f"RSS REGRESSION: parent ratio {ours_rss['rss_ratio']:.2f}x "
                f"exceeds 2x"
            )
    ours_ref, ref_ref = payload.get("reference"), reference.get("reference")
    if ours_ref and ref_ref:
        if ours_ref["config"] != ref_ref["config"]:
            print("WARNING: reference config changed; stats not compared")
        elif ours_ref["fingerprint"] != ref_ref["fingerprint"]:
            mismatches += 1
            print("FINGERPRINT REGRESSION: reference campaign identity moved")
        elif ours_ref["points"] != ref_ref["points"]:
            mismatches += 1
            print("STATS REGRESSION: reference points differ from committed run")
    print(f"[compared against {reference_path}]")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--fault-counts", type=int, nargs="+", default=[4, 8, 12, 16],
        help="fault-count axis of every campaign section",
    )
    parser.add_argument(
        "--trials", type=int, default=30,
        help="trials per point of the resume/rerun sections",
    )
    parser.add_argument("--width", type=int, default=16, help="mesh width")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--chunk-trials", type=int, default=500,
        help="trials per dispatched task / stored chunk",
    )
    parser.add_argument(
        "--rss-trials", type=int, default=25_000,
        help="trials per point of the large RSS run "
        "(default 4 points x 25k = 100k trials)",
    )
    parser.add_argument(
        "--rss-baseline-trials", type=int, default=25,
        help="trials per point of the small RSS baseline (100 total)",
    )
    parser.add_argument(
        "--skip-rss", action="store_true",
        help="skip the (slow) RSS section",
    )
    parser.add_argument(
        "--artifact-dir", type=Path, default=None,
        help="also write the large run's manifest + reduced points here "
        "(the committed campaign artifact)",
    )
    parser.add_argument(
        "--compare", type=Path, default=None,
        help="reference JSON whose identity/skip/stats records this run "
        "must reproduce",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    # Internal: the RSS measurement child.
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--rss-child-trials", type=int, default=0, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--rss-child-store", type=Path, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.rss_child:
        args.rss_child_trials = args.rss_child_trials or args.trials
        return run_rss_child(args)

    resume = bench_resume(args)
    rerun = bench_rerun(args)
    rss = None
    if not args.skip_rss:
        with tempfile.TemporaryDirectory(prefix="bench-campaign-art-") as tmp:
            big_store = (
                Path(tmp) / "big" if args.artifact_dir is None
                else Path(tmp) / "artifact-store"
            )
            rss = bench_rss(args, big_store)
            artifact = (
                write_artifact(args, big_store)
                if args.artifact_dir is not None
                else None
            )
    else:
        artifact = None
    reference = bench_reference()

    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "fault_counts": args.fault_counts,
            "trials": args.trials,
            "width": args.width,
            "seed": args.seed,
            "chunk_trials": args.chunk_trials,
            "rss_trials": args.rss_trials,
            "rss_baseline_trials": args.rss_baseline_trials,
            "models": list(MODELS),
        },
        "resume": resume,
        "rerun": rerun,
        "rss": rss,
        "reference": reference,
    }
    if artifact is not None:
        payload["artifact"] = artifact

    failures = 0
    if not resume["identical"]:
        print("FAILURE: resumed campaign is not bit-identical")
        failures += 1
    if rerun["skip_fraction"] < 0.99:
        print("FAILURE: rerun skipped less than 99% of the plan")
        failures += 1
    if rss is not None and not rss["flat"]:
        print("FAILURE: parent RSS grew more than 2x with campaign size")
        failures += 1
    if args.compare is not None:
        failures += compare_reference(payload, args.compare)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[wrote {args.out}]")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
