"""Self-test of the pipeline benchmark at tiny input sizes.

Runs every workload untraced and traced with ``--scale tiny`` and checks
what a consumer of the results relies on: the exit code, the result
schema of the last stdout line against ``BENCHMARK.json``, the output
checks, a digest that repeats between the two runs of a seed, and the
refusals (``REPRO_*`` variables set; no ``src/`` beside the benchmark).
Takes about half a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORK  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT, env=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(command, cwd=str(cwd), env=env, capture_output=True, text=True,
                          timeout=170)


def check_result(workload: str, trace: int, spec: dict, problems: list) -> str:
    done = run_bench(workload, trace)
    where = f"{workload} --trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        problems.append(f"{where}: exit {done.returncode}\n{done.stdout}{done.stderr}")
        return ""
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct / failed operations: {lines[-1][:200]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} = {entry}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {value}")
    digests = [line for line in lines if line.startswith("# digest ")]
    return digests[0] if digests else ""


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.py does not have")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    for workload in WORKLOADS:
        untraced = check_result(workload, 0, spec, problems)
        traced = check_result(workload, 1, spec, problems)
        if not untraced or untraced != traced:
            problems.append(f"{workload}: digest differs between runs of one seed")
        print(f"{workload}: done", flush=True)

    env = dict(os.environ, REPRO_NETSIM="scalar")
    refused = run_bench("netsim-64", 0, env=env)
    if refused.returncode == 0:
        problems.append("a REPRO_* implementation variable did not stop the run")

    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    alone = run_bench("paper-sweep", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if alone.returncode == 0 or alone.stdout.strip():
        problems.append("without src/ the benchmark did not fail before printing")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
