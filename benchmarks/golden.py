#!/usr/bin/env python
"""Golden-output guards: one comparator for every committed benchmark reference.

Each row of :data:`GUARDS` names a bench script, its arguments (the CI
configuration, which lives only here), its reference under
``benchmarks/results/`` and the compared fields: dot paths in which ``*``
matches every key or list index.  Every value at or below a field is
compared as exact JSON; timings are never compared.

``check`` runs each script into the gitignored ``benchmarks/results/runs/``
and fails when the script exits non-zero (its own gates), when a field
matches nothing in the reference, or when a compared value is missing
from the run, differs, or is missing from the reference.  ``regen`` runs
the same and rewrites only the compared values of the reference.

Usage: ``python benchmarks/golden.py {check,regen} [NAME ...]`` (default:
every guard), e.g. ``python benchmarks/golden.py check kernel``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
RUNS = RESULTS / "runs"


class Guard(NamedTuple):
    script: str
    argv: tuple
    reference: str
    fields: tuple


def paths(prefix: str, names: str) -> tuple:
    """``prefix.name`` for every whitespace-separated name in *names*."""
    return tuple(f"{prefix}.{name}" for name in names.split())


GUARDS = {
    "routing_engine": Guard(
        "bench_routing_engine.py", ("--repeats", "1"), "BENCH_routing_engine.json",
        paths("meshes.*", "width num_faults enabled")
        + paths("meshes.*.patterns.*", "label messages delivery_rate mean_detour identical stats"),
    ),
    "saturation": Guard(
        "bench_saturation.py", ("--require-knee",), "BENCH_saturation.json",
        paths("scenarios.*", "width num_faults distribution enabled monotone knee_load knee_rising")
        + paths("scenarios.*.patterns.*", "identical fields fingerprint mean_latency")
        + paths("scenarios.*.patterns.*", "mean_queueing accepted_load")
        + paths("scenarios.*.curve.*", "load fields fingerprint mean_latency")
        + paths("scenarios.*.curve.*", "mean_queueing accepted_load"),
    ),
    "backends": Guard(
        "bench_backends.py", ("--backends", "numpy", "--repeats", "1"), "BENCH_backends.json",
        ("workloads.*.label",) + paths("workloads.*.backends.numpy", "stats identical"),
    ),
    "serve": Guard(
        "bench_serve.py", ("--rounds", "2"), "BENCH_serve.json",
        paths("coalesce", "concurrency pairs_per_request identical delivered")
        + paths("deltas", "width num_faults updates messages identical stats delta_applies")
        + paths("deltas", "jump_rebuilds_delta jump_rebuilds_rebuild")
        + paths("deltas.ring_append", "regions identical")
        + paths("overload", "clients requests_per_client pairs_per_request max_pending")
        + paths("overload", "offered all_completed"),
    ),
    "campaign": Guard(
        "bench_campaign.py", ("--rss-trials", "500"), "BENCH_campaign.json",
        paths("resume", "fingerprint planned interrupted_after resumed_skipped identical complete")
        + paths("rerun", "planned rerun_executed skip_fraction")
        + ("rss.flat", "rss.complete", "reference"),
    ),
    "traffic": Guard(
        "bench_traffic_patterns.py", (), "BENCH_traffic.json",
        ("scenario",)
        + paths("patterns.*", "label messages generated delivery_rate mean_hops mean_detour")
        + paths("patterns.*", "abnormal_fraction engine"),
    ),
    "kernel": Guard(
        "bench_kernel.py", ("--trials", "1"), "BENCH_kernel.json",
        ("mesh", "scenario")
        + paths("constructions.*", "identical num_regions disabled_nonfaulty rounds")
        + paths("routing", "num_faults instantiations messages_per_instantiation delivered"),
    ),
}


def leaves(node, keys: tuple, path: tuple = ()) -> dict:
    """Every value at or below the dot-path *keys*, by its full path."""
    if not keys and not (isinstance(node, (dict, list)) and node):
        return {path: node}
    if not isinstance(node, (dict, list)):
        return {}
    items = node.items() if isinstance(node, dict) else enumerate(node)
    found = {}
    for key, child in items:
        if (keys[0] if keys else "*") in ("*", str(key)):
            found.update(leaves(child, keys[1:], path + (key,)))
    return found


def compared(document: dict, fields: tuple) -> dict:
    """The compared values of *document*, by path."""
    return {
        path: value
        for field in fields
        for path, value in leaves(document, tuple(field.split("."))).items()
    }


def compare(reference: dict, run: dict, fields: tuple) -> list:
    """Every difference between the compared values of *reference* and *run*."""
    expected, actual = compared(reference, fields), compared(run, fields)
    problems = [
        f"{field}: matches nothing in the reference"
        for field in fields
        if not leaves(reference, tuple(field.split(".")))
    ]
    if not expected:
        problems.append("the reference holds no compared value")
    for path in {**expected, **actual}:
        want, got = (json.dumps(d[path]) if path in d else None for d in (expected, actual))
        if want != got:
            dotted = ".".join(map(str, path))
            problems.append(f"{dotted}: reference {want or 'missing'}, run {got or 'missing'}")
    return problems


def _has(node, path: tuple) -> bool:
    for key in path:
        if isinstance(node, dict) and key in node or (
            isinstance(node, list) and isinstance(key, int) and key < len(node)
        ):
            node = node[key]
        else:
            return False
    return True


def _put(node, key, value) -> None:
    if isinstance(node, list) and key == len(node):
        node.append(value)
    else:
        node[key] = value


def regenerate(reference: dict, run: dict, fields: tuple) -> dict:
    """*reference*, in place, with its compared values replaced by *run*'s.

    What the run lacks goes from its first missing key on (a configuration
    the run dropped goes whole); what only the run has is added, missing
    parents made like the run's.  Nothing else in *reference* changes.
    """
    expected, actual = compared(reference, fields), compared(run, fields)
    # Back to front, so deleting a list item leaves earlier indices valid.
    for path in reversed([path for path in expected if path not in actual]):
        cut = next((i for i in range(1, len(path)) if not _has(run, path[:i])), len(path))
        if _has(reference, path[:cut]):
            node = reference
            for key in path[: cut - 1]:
                node = node[key]
            del node[path[cut - 1]]
    for path, value in actual.items():
        node, shape = reference, run
        for key in path[:-1]:
            shape = shape[key]
            if not _has(node, (key,)):
                _put(node, key, type(shape)())
            node = node[key]
        _put(node, path[-1], value)
    return reference


def run_guard(name: str) -> dict | None:
    """Run *name*'s script at its guard configuration: its JSON, or ``None``."""
    guard, out = GUARDS[name], RUNS / f"{name}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / guard.script), *guard.argv, "--out", str(out)]
    print(f"== {name}: {' '.join(command[1:])}", flush=True)
    code = subprocess.run(command).returncode
    if code:
        print(f"GOLDEN FAILURE {name}: {guard.script} exited {code}")
        return None
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("action", choices=("check", "regen"))
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"guards to run (default: all of {', '.join(GUARDS)})",
    )
    args = parser.parse_args(argv)
    if set(args.names) - set(GUARDS):
        parser.error(f"unknown guard in {args.names}; known: {', '.join(GUARDS)}")
    failed = []
    for name in args.names or GUARDS:
        guard, run = GUARDS[name], run_guard(name)
        if run is None:
            failed.append(name)
            continue
        path = RESULTS / guard.reference
        reference = json.loads(path.read_text())
        problems = compare(reference, run, guard.fields)
        for problem in problems:
            print(f"{'moved' if args.action == 'regen' else 'GOLDEN MISMATCH'} {name}: {problem}")
        if args.action == "regen":
            path.write_text(json.dumps(regenerate(reference, run, guard.fields), indent=2) + "\n")
        elif problems:
            failed.append(name)
        print(
            f"[{name}: {len(compared(reference, guard.fields))} values compared against "
            f"{guard.reference}, {len(problems)} differences]"
        )
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
