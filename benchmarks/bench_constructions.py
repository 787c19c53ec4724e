"""Micro-benchmarks of the individual constructions.

These time one construction on a fixed 100x100 scenario with 400 clustered
faults (the middle of the paper's sweep), using pytest-benchmark's normal
repetition so the timing statistics are meaningful.  They are not part of
the paper's evaluation but document the cost of each building block and
guard against performance regressions.  The two draw benchmarks time the
fault models themselves: 800 faults on 100x100, as at the top of the sweep.
"""

import hashlib

import pytest

from repro.core.faulty_block import build_faulty_blocks
from repro.core.labelling import apply_labelling_scheme_1, faults_to_mask
from repro.core.mfp import build_minimum_polygons
from repro.core.components import find_components
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.distributed.dmfp import build_minimum_polygons_distributed
from repro.faults.scenario import generate_scenario
from repro.geometry.orthogonal import orthogonal_convex_hull


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(num_faults=400, width=100, model="clustered", seed=42)


@pytest.fixture(scope="module")
def topology(scenario):
    return scenario.topology()


def test_bench_scheme1_labelling(benchmark, scenario):
    mask = faults_to_mask(scenario.faults, 100, 100)
    benchmark(apply_labelling_scheme_1, mask)


def test_bench_faulty_blocks(benchmark, scenario, topology):
    result = benchmark(build_faulty_blocks, scenario.faults, topology)
    assert result.all_rectangular()


def test_bench_sub_minimum_polygons(benchmark, scenario, topology):
    result = benchmark(build_sub_minimum_polygons, scenario.faults, topology)
    assert result.all_orthogonal_convex()


def test_bench_minimum_polygons(benchmark, scenario, topology):
    result = benchmark(build_minimum_polygons, scenario.faults, topology)
    assert result.all_orthogonal_convex()


def _minimum_polygon_rounds(faults, topology):
    """One MFP build plus its first ``rounds`` read, which runs the emulation."""
    return build_minimum_polygons(faults, topology).rounds


def test_bench_minimum_polygons_with_rounds(benchmark, scenario, topology):
    rounds = benchmark(_minimum_polygon_rounds, scenario.faults, topology)
    assert rounds >= 0


def test_bench_distributed_construction(benchmark, scenario, topology):
    result = benchmark(build_minimum_polygons_distributed, scenario.faults, topology)
    assert result.all_orthogonal_convex()


def test_bench_component_merge(benchmark, scenario):
    components = benchmark(find_components, scenario.faults)
    assert components


def test_bench_orthogonal_convex_hull(benchmark, scenario):
    components = find_components(scenario.faults)
    largest = max(components, key=lambda c: c.size)
    hull = benchmark(orthogonal_convex_hull, largest.nodes)
    assert set(largest.nodes) <= hull


#: sha256 of the ``repr`` of each model's 800 faults on 100x100 at seed 42.
DRAW_DIGESTS = {
    "clustered": "0017f480749cbe058e0a78eeebecb832110128d907339d3a03e8e9782c99bf70",
    "random": "9217d22f8694e9aa02f6c5c8262a86a9cc1200e9edb5cd04fb7c50d84bd6dd41",
}


def _draw_digest(benchmark, model):
    scenario = benchmark(generate_scenario, num_faults=800, width=100, model=model, seed=42)
    return hashlib.sha256(repr(scenario.faults).encode()).hexdigest()


def test_bench_clustered_draw(benchmark):
    assert _draw_digest(benchmark, "clustered") == DRAW_DIGESTS["clustered"]


def test_bench_random_draw(benchmark):
    assert _draw_digest(benchmark, "random") == DRAW_DIGESTS["random"]
