"""Shared helpers for the benchmark harness.

Every figure of the paper's evaluation has one benchmark module.  The
benchmarks have two jobs:

1. time the constructions (pytest-benchmark statistics), and
2. regenerate the figure's data series and persist them as text tables
   under ``benchmarks/results/``.

The sweeps default to a reduced number of trials so that the whole harness
finishes in a couple of minutes; set the environment variable
``REPRO_BENCH_TRIALS`` to raise the trial count for smoother curves.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

#: Fault counts swept by the paper (Figures 9-11 x axis).
FAULT_COUNTS = (100, 200, 300, 400, 500, 600, 700, 800)

#: Mesh width/height used by the paper's simulation.
MESH_WIDTH = 100

#: Trials per sweep point (the paper averages many runs; 2 keeps CI quick).
TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "2"))

#: Worker processes for the sweep trials (repro.api.SweepExecutor); 1 keeps
#: the timing benchmarks single-process, raise it for faster figure sweeps.
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

RESULTS_DIR = Path(__file__).parent / "results"


def record_result(name: str, text: str) -> None:
    """Persist a rendered figure table under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    # Also echo to stdout so `pytest -s` shows the series inline.
    print(f"\n{text}\n[written to {path}]")


@pytest.fixture(scope="session")
def fault_counts():
    """The paper's fault-count sweep."""
    return FAULT_COUNTS


@pytest.fixture(scope="session")
def mesh_width():
    """The paper's mesh width (100)."""
    return MESH_WIDTH


@pytest.fixture(scope="session")
def trials():
    """Trials per sweep point."""
    return TRIALS
