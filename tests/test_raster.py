"""Tests for FaultRaster (repro.core.raster): one validated fault set per
topology, whose scheme-1 labelling and component table every construction
built from it shares."""

import numpy as np
import pytest

import repro.core.raster as raster_module
from repro.api import get_construction
from repro.api.executor import collect_scenario_metrics
from repro.core.components import ComponentTable, find_components
from repro.core.labelling import apply_labelling_scheme_1, faults_to_mask
from repro.core.raster import FaultRaster
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D, Torus2D

MODELS = ("fb", "fp", "mfp", "cmfp", "dmfp")

SCENARIOS = {
    "random": dict(num_faults=160, width=30, model="random", seed=11),
    "clustered": dict(num_faults=180, width=30, model="clustered", seed=12),
    "torus": dict(num_faults=70, width=20, model="clustered", seed=13, torus=True),
}


@pytest.fixture
def labelling_calls(monkeypatch):
    """Counts of the raster's scheme-1 runs and component-table labellings."""
    calls = {"scheme1": 0, "components": 0}
    scheme1 = raster_module.apply_labelling_scheme_1
    from_mask = ComponentTable.from_mask.__func__

    def counting_scheme1(*args, **kwargs):
        calls["scheme1"] += 1
        return scheme1(*args, **kwargs)

    def counting_from_mask(cls, *args, **kwargs):
        calls["components"] += 1
        return from_mask(cls, *args, **kwargs)

    monkeypatch.setattr(raster_module, "apply_labelling_scheme_1", counting_scheme1)
    monkeypatch.setattr(ComponentTable, "from_mask", classmethod(counting_from_mask))
    return calls


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_constructions_from_a_raster_equal_those_from_the_fault_list(name):
    scenario = generate_scenario(**SCENARIOS[name])
    topology = scenario.topology()
    faults = list(scenario.faults)
    raster = FaultRaster(faults, topology)
    for key in MODELS:
        shared = get_construction(key).build(raster)
        fresh = get_construction(key).build(faults, topology)
        for array in ("faulty", "unsafe", "disabled"):
            assert np.array_equal(getattr(shared.grid, array), getattr(fresh.grid, array)), key
        assert [r.nodes for r in shared.regions] == [r.nodes for r in fresh.regions], key
        assert [r.faulty_nodes for r in shared.regions] == [
            r.faulty_nodes for r in fresh.regions
        ], key
        assert np.array_equal(shared.region_index, fresh.region_index), key
        assert shared.rounds == fresh.rounds, key
    assert tuple(raster) == tuple(faults)


def test_a_trial_labels_once_per_labelling(labelling_calls):
    scenario = generate_scenario(num_faults=120, width=30, model="clustered", seed=4)
    metrics = collect_scenario_metrics(scenario, models=MODELS)
    assert sorted(metrics.per_model) == ["CMFP", "DMFP", "FB", "FP", "MFP"]
    assert labelling_calls == {"scheme1": 1, "components": 1}


def test_the_labellings_equal_fresh_ones_and_are_read_only():
    scenario = generate_scenario(num_faults=90, width=24, model="random", seed=2)
    topology = scenario.topology()
    raster = FaultRaster(scenario.faults, topology)
    mask = faults_to_mask(scenario.faults, 24, 24)
    assert np.array_equal(raster.mask, mask)
    assert raster.coords.tolist() == [list(fault) for fault in scenario.faults]
    fresh = apply_labelling_scheme_1(mask, topology)
    assert np.array_equal(raster.scheme1.labels, fresh.labels)
    assert raster.scheme1.rounds == fresh.rounds
    assert raster.scheme1 is raster.scheme1
    assert raster.components() == find_components(scenario.faults)
    assert raster.components() is raster.components()
    for array in (raster.mask, raster.coords, raster.scheme1.labels):
        with pytest.raises(ValueError):
            array[0, 0] = 1


def test_sequence_of_the_input_faults_in_order():
    topology = Mesh2D(6, 4)
    faults = [(5, 3), (0, 0), (2, 1), (0, 0)]
    raster = FaultRaster(faults, topology)
    assert len(raster) == 4 and raster[0] == (5, 3) and raster[-1] == (0, 0)
    assert list(raster) == faults and (2, 1) in raster
    assert int(raster.mask.sum()) == 3
    empty = FaultRaster([], topology)
    assert len(empty) == 0 and empty.coords.shape == (0, 2) and not empty.mask.any()
    assert empty.scheme1.rounds == 0 and len(empty.component_table) == 0


def test_of_reuses_a_raster_of_the_same_topology_only():
    raster = FaultRaster([(1, 1), (2, 2)], Mesh2D(5, 5))
    assert FaultRaster.of(raster, Mesh2D(5, 5)) is raster
    torus = FaultRaster.of(raster, Torus2D(5, 5))
    assert torus is not raster and torus.topology == Torus2D(5, 5)
    assert tuple(torus) == tuple(raster)


def test_a_fault_outside_the_topology_is_refused_by_name():
    with pytest.raises(ValueError, match=r"fault \(5, 1\) outside 5x5 grid"):
        FaultRaster([(1, 1), (5, 1), (9, 9)], Mesh2D(5, 5))


def test_coordinates_that_are_not_pairs_are_refused_by_shape():
    # They used to be regrouped: this built on the faults (1, 2), (3, 4), (5, 6).
    with pytest.raises(ValueError, match=r"not \(1, 2, 3\)$"):
        get_construction("fb").build([(1, 2, 3), (4, 5, 6)], Mesh2D(10, 10))
    with pytest.raises(ValueError, match=r"not 3$"):
        faults_to_mask((3, 4), 10, 10)
    empty = FaultRaster([], Mesh2D(4, 4)).coords
    assert (empty.shape, empty.dtype) == ((0, 2), np.int64)


@pytest.mark.parametrize(
    "faults, bad",
    [
        ([(1, 1), (1.5, 2)], r"\(1\.5, 2\)"),
        ([(True, 2), (3, 3)], r"\(True, 2\)"),
        ([(1, 1), ("3", 2)], r"\('3', 2\)"),
        (np.array([[1.0, 2.0]]), r"array\(\[1\., 2\.\]\)"),
    ],
)
def test_coordinates_that_are_not_integers_are_refused_by_name(faults, bad):
    # A float used to end in an IndexError, a bool to build a fault at (1, 2).
    with pytest.raises(ValueError, match=f"fault coordinates must be .* integers, not {bad}$"):
        FaultRaster(faults, Mesh2D(10, 10))


def test_numpy_integer_coordinates_are_taken():
    faults = [(np.int64(1), np.int16(2)), (3, 3)]
    raster = FaultRaster(faults, Mesh2D(5, 5))
    assert raster.coords.dtype == np.int64 and raster.coords.tolist() == [[1, 2], [3, 3]]
    assert FaultRaster(np.array([[1, 2]], dtype=np.int32), Mesh2D(5, 5)).mask[1, 2]
