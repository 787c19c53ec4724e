"""Unit tests for repro.faults (fault models and scenarios)."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.models import ClusteredFaultModel, RandomFaultModel, make_fault_model
from repro.faults.scenario import generate_scenario, sweep_scenarios
from repro.geometry.boundary import eight_neighbours
from repro.mesh.topology import Mesh2D, Torus2D


class TestRandomFaultModel:
    def test_draws_requested_count_without_duplicates(self, mesh20):
        model = RandomFaultModel(mesh20, np.random.default_rng(0))
        faults = model.draw_faults(50)
        assert len(faults) == 50
        assert len(set(faults)) == 50

    def test_all_faults_inside_topology(self, mesh20):
        model = RandomFaultModel(mesh20, np.random.default_rng(1))
        assert all(fault in mesh20 for fault in model.draw_faults(100))

    def test_zero_faults(self, mesh10):
        assert RandomFaultModel(mesh10).draw_faults(0) == []

    def test_rejects_negative_and_oversized_counts(self, mesh10):
        model = RandomFaultModel(mesh10)
        with pytest.raises(ValueError):
            model.draw_faults(-1)
        with pytest.raises(ValueError):
            model.draw_faults(101)

    def test_can_fill_the_whole_mesh(self):
        mesh = Mesh2D(4, 4)
        faults = RandomFaultModel(mesh, np.random.default_rng(2)).draw_faults(16)
        assert set(faults) == set(mesh.nodes())

    def test_seeded_reproducibility(self, mesh20):
        a = RandomFaultModel(mesh20, np.random.default_rng(7)).draw_faults(30)
        b = RandomFaultModel(mesh20, np.random.default_rng(7)).draw_faults(30)
        assert a == b

    @pytest.mark.parametrize("topology", [Mesh2D(13, 7), Torus2D(1, 9), Mesh2D(9, 1)], ids=repr)
    def test_positions_are_the_divmod_of_each_chosen_index(self, topology):
        count = topology.num_nodes // 2
        faults = RandomFaultModel(topology, np.random.default_rng(5)).draw_faults(count)
        chosen = np.random.default_rng(5).choice(topology.num_nodes, size=count, replace=False)
        height = topology.height
        assert faults == [(int(idx) // height, int(idx) % height) for idx in chosen]
        assert all(type(c) is int for fault in faults for c in fault)


class TestClusteredFaultModel:
    def test_draws_requested_count_without_duplicates(self, mesh20):
        model = ClusteredFaultModel(mesh20, np.random.default_rng(0))
        faults = model.draw_faults(60)
        assert len(faults) == 60
        assert len(set(faults)) == 60

    def test_rejects_non_positive_cluster_factor(self, mesh10):
        for factor in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cluster_factor"):
                ClusteredFaultModel(mesh10, cluster_factor=factor)

    def test_clustering_increases_adjacency(self, mesh20):
        """Clustered faults touch existing faults more often than random ones."""
        def adjacency_fraction(faults):
            fault_set = set(faults)
            adjacent = 0
            for fault in faults:
                if any(n in fault_set for n in eight_neighbours(fault)):
                    adjacent += 1
            return adjacent / len(faults)

        rng_random = np.random.default_rng(3)
        rng_clustered = np.random.default_rng(3)
        random_fraction = np.mean([
            adjacency_fraction(RandomFaultModel(mesh20, rng_random).draw_faults(60))
            for _ in range(5)
        ])
        clustered_fraction = np.mean([
            adjacency_fraction(
                ClusteredFaultModel(mesh20, rng_clustered, cluster_factor=8.0).draw_faults(60)
            )
            for _ in range(5)
        ])
        assert clustered_fraction > random_fraction

    def test_works_on_torus(self, torus10):
        model = ClusteredFaultModel(torus10, np.random.default_rng(5))
        faults = model.draw_faults(20)
        assert all(fault in torus10 for fault in faults)


def choice_loop(topology, rng, factor, count):
    """The clustered draw with one ``rng.choice(p=...)`` per fault over a
    rebuilt probability vector: the oracle the sum-tree sampler must equal."""
    width, height = topology.width, topology.height
    weights = np.ones((width, height), dtype=float)
    faulty = np.zeros((width, height), dtype=bool)
    faults = []
    for _ in range(count):
        available = ~faulty
        probs = np.where(available, weights, 0.0).ravel()
        total = probs.sum()
        if total <= 0:
            raise RuntimeError("no available node left for fault injection")
        probs /= total
        flat_index = int(rng.choice(width * height, p=probs))
        x, y = flat_index // height, flat_index % height
        faults.append((x, y))
        faulty[x, y] = True
        for nx, ny in topology.adjacent_nodes((x, y)):
            weights[nx, ny] *= factor
    return faults


def tree_draw(topology, rng, factor, count):
    return ClusteredFaultModel(topology, rng, cluster_factor=factor).draw_faults(count)


#: (width, height, torus, cluster factor, count, seed) of the golden draws.
GOLDEN_CASES = (
    (1, 7, False, 2.0, 7, 0),
    (2, 3, True, 2.0, 6, 1),
    (7, 5, True, 8.0, 35, 2),
    (10, 10, False, 2.0, 60, 3),
    (12, 9, True, 3.7, 100, 4),
    (20, 20, False, 8.0, 150, 5),
    (33, 17, True, 1.5, 200, 6),
    (100, 100, False, 2.0, 800, 7),
)

#: sha256 of the ``repr`` of every golden case's draws, in order, as the
#: ``rng.choice`` loop (``choice_loop``) drew them.
GOLDEN_DIGEST = "c7b0af794034585681df5f37e74c97e280dc9abdddaebd8e9ed5183f07103b78"

#: Larger golden draws: a 2**17-leaf tree, a paper-size torus and two
#: factors below 1, whose weights shrink.
LARGE_GOLDEN_CASES = (
    (300, 300, False, 2.0, 3600, 11),
    (100, 100, True, 2.0, 800, 12),
    (30, 30, False, 0.5, 400, 13),
    (17, 33, True, 0.3, 300, 14),
)

#: The ``choice_loop`` digest of ``LARGE_GOLDEN_CASES``, pinned because the
#: loop takes seconds on them.
LARGE_GOLDEN_DIGEST = "6eadd43ead77aeb0002c281ca21fd92bed4f53f7e48f299de6c5aa2232ced128"


class FixedRandom:
    """An rng stub whose every ``random()`` is one fixed double."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestClusteredSampler:
    """The sum-tree sampler draws exactly what ``Generator.choice`` draws."""

    @pytest.mark.parametrize(
        "topology",
        [Mesh2D(1, 7), Torus2D(1, 7), Mesh2D(2, 3), Torus2D(2, 3), Mesh2D(9, 8), Torus2D(9, 8)],
        ids=repr,
    )
    @pytest.mark.parametrize("factor", [0.3, 0.5, 1.0, 1.5, 2.0, 3.7, 8.0])
    def test_equals_choice_loop_until_full(self, topology, factor):
        # A 2x3 torus lists some neighbours twice; each copy multiplies.
        count = topology.num_nodes
        for seed in range(20):
            expected = choice_loop(topology, np.random.default_rng(seed), factor, count)
            assert tree_draw(topology, np.random.default_rng(seed), factor, count) == expected

    @pytest.mark.parametrize(
        "topology",
        [Mesh2D(3, 5), Torus2D(5, 3), Mesh2D(17, 2), Torus2D(2, 9), Mesh2D(7, 1), Torus2D(5, 1)],
        ids=repr,
    )
    @pytest.mark.parametrize("factor", [0.3, 0.5, 1.0, 1.5, 2.0, 3.7, 8.0])
    def test_padded_shapes_equal_choice_loop_until_full(self, topology, factor):
        # Sides just off a power of two pad every column tree and the top
        # tree; a side of 1 or 2 leaves one tree a single leaf or lists
        # a torus neighbour twice.
        count = topology.num_nodes
        for seed in range(20):
            expected = choice_loop(topology, np.random.default_rng(seed), factor, count)
            assert tree_draw(topology, np.random.default_rng(seed), factor, count) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        torus=st.booleans(),
        factor=st.sampled_from([0.3, 0.5, 1.5, 2.0, 3.7, 8.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_any_small_shape_equals_choice_loop(self, width, height, torus, factor, seed, data):
        topology = (Torus2D if torus else Mesh2D)(width, height)
        count = data.draw(st.integers(0, topology.num_nodes), label="count")
        expected = choice_loop(topology, np.random.default_rng(seed), factor, count)
        assert tree_draw(topology, np.random.default_rng(seed), factor, count) == expected

    @pytest.mark.parametrize("topology", [Mesh2D(30, 20), Torus2D(30, 20)], ids=repr)
    def test_second_draw_reuses_the_shape_layout(self, topology, monkeypatch):
        first = tree_draw(topology, np.random.default_rng(0), 2.0, 100)
        calls = Counter()
        method = type(topology).normalise

        def counted(self, node):
            calls["normalise"] += 1
            return method(self, node)

        monkeypatch.setattr(type(topology), "normalise", counted)
        assert tree_draw(topology, np.random.default_rng(0), 2.0, 100) == first
        assert calls["normalise"] == 0

    def test_mesh_and_torus_of_one_size_keep_their_own_layouts(self):
        # Interleaved draws: a layout keyed by size alone would hand the
        # torus the mesh's neighbour lists, or the reverse.
        mesh, torus = Mesh2D(5, 5), Torus2D(5, 5)
        for seed in range(5):
            for topology in (mesh, torus, mesh, torus):
                expected = choice_loop(topology, np.random.default_rng(seed), 2.0, 25)
                assert tree_draw(topology, np.random.default_rng(seed), 2.0, 25) == expected

    def test_leaves_the_rng_where_choice_does(self, mesh20):
        tree_rng, choice_rng = np.random.default_rng(11), np.random.default_rng(11)
        tree_draw(mesh20, tree_rng, 2.0, 50)
        choice_loop(mesh20, choice_rng, 2.0, 50)
        assert tree_rng.random() == choice_rng.random()

    def test_golden_digest(self):
        digest = hashlib.sha256()
        for width, height, torus, factor, count, seed in GOLDEN_CASES:
            topology = (Torus2D if torus else Mesh2D)(width, height)
            faults = tree_draw(topology, np.random.default_rng(seed), factor, count)
            digest.update(repr(faults).encode())
        assert digest.hexdigest() == GOLDEN_DIGEST

    def test_large_golden_digest(self):
        digest = hashlib.sha256()
        for width, height, torus, factor, count, seed in LARGE_GOLDEN_CASES:
            topology = (Torus2D if torus else Mesh2D)(width, height)
            faults = tree_draw(topology, np.random.default_rng(seed), factor, count)
            digest.update(repr(faults).encode())
        assert digest.hexdigest() == LARGE_GOLDEN_DIGEST

    @pytest.mark.parametrize("topology", [Mesh2D(100, 100), Torus2D(100, 100)], ids=repr)
    def test_reads_the_neighbourhood_per_axis(self, topology, monkeypatch):
        # The neighbour tables come from one normalise per coordinate of
        # each axis, not from adjacent_nodes per fault.
        calls = Counter()
        for name in ("normalise", "adjacent_nodes"):
            method = getattr(type(topology), name)

            def counted(self, node, name=name, method=method):
                calls[name] += 1
                return method(self, node)

            monkeypatch.setattr(type(topology), name, counted)
        tree_draw(topology, np.random.default_rng(0), 2.0, 800)
        assert calls["adjacent_nodes"] == 0
        assert calls["normalise"] <= 3 * (topology.width + topology.height)

    def test_draw_on_a_cdf_step_falls_back_to_numpy(self):
        # 0.6 * 5 == 3.0 puts the tree exactly on the boundary of leaf 3,
        # but numpy's cdf[2] is 0.6000000000000001 > 0.6, so choice picks 2.
        assert tree_draw(Mesh2D(1, 5), FixedRandom(0.6), 2.0, 1) == [(0, 2)]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize(
        "topology, factor", [(Mesh2D(6, 6), 1e150), (Mesh2D(2, 2), 1e-150)], ids=["huge", "tiny"]
    )
    def test_untrusted_totals_equal_choice_loop(self, topology, factor):
        # The third draw's total is ~1e300 or ~1e-300, outside the range
        # where the tree is trusted, so numpy's arithmetic draws it.
        for seed in range(20):
            expected = choice_loop(topology, np.random.default_rng(seed), factor, 3)
            assert tree_draw(topology, np.random.default_rng(seed), factor, 3) == expected

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("draw", [choice_loop, tree_draw])
    def test_overflowing_weights_raise_value_error(self, draw):
        with pytest.raises(ValueError, match="Probabilities contain NaN"):
            draw(Mesh2D(10, 10), np.random.default_rng(0), 1e200, 30)

    @pytest.mark.parametrize("draw", [choice_loop, tree_draw])
    def test_underflowing_weights_raise_runtime_error(self, draw):
        with pytest.raises(RuntimeError, match="no available node"):
            draw(Mesh2D(2, 2), np.random.default_rng(0), 1e-200, 4)


class TestMakeFaultModel:
    def test_dispatch(self, mesh10):
        assert isinstance(make_fault_model("random", mesh10), RandomFaultModel)
        assert isinstance(make_fault_model("clustered", mesh10), ClusteredFaultModel)
        assert isinstance(make_fault_model("  Clustered ", mesh10), ClusteredFaultModel)

    def test_unknown_model_rejected(self, mesh10):
        with pytest.raises(ValueError):
            make_fault_model("gaussian", mesh10)

    def test_cluster_factor_forwarded(self, mesh10):
        model = make_fault_model("clustered", mesh10, cluster_factor=4.0)
        assert model.cluster_factor == 4.0


class TestScenario:
    def test_generate_scenario_defaults(self):
        scenario = generate_scenario(num_faults=10, width=15, seed=1)
        assert scenario.width == scenario.height == 15
        assert scenario.num_faults == 10
        assert scenario.model == "random"
        assert not scenario.torus
        assert isinstance(scenario.topology(), Mesh2D)

    def test_generate_scenario_torus(self):
        scenario = generate_scenario(num_faults=5, width=8, torus=True, seed=2)
        assert isinstance(scenario.topology(), Torus2D)

    def test_model_name_is_canonicalised_and_factor_forwarded(self):
        loose = generate_scenario(60, width=20, model=" Clustered ", seed=3, cluster_factor=8.0)
        exact = generate_scenario(60, width=20, model="clustered", seed=3, cluster_factor=8.0)
        assert loose.model == "clustered"
        assert loose == exact

    def test_scenario_is_reproducible(self):
        a = generate_scenario(num_faults=20, width=20, model="clustered", seed=9)
        b = generate_scenario(num_faults=20, width=20, model="clustered", seed=9)
        assert a.faults == b.faults

    def test_fault_set(self):
        scenario = generate_scenario(num_faults=12, width=10, seed=4)
        assert scenario.fault_set() == frozenset(scenario.faults)
        assert len(scenario.fault_set()) == 12

    def test_describe_mentions_model_and_size(self):
        scenario = generate_scenario(num_faults=3, width=6, model="clustered", seed=0)
        text = scenario.describe()
        assert "6x6" in text and "clustered" in text and "3 faults" in text

    def test_sweep_scenarios_shapes(self):
        scenarios = list(sweep_scenarios([5, 10], trials=3, width=12, base_seed=100))
        assert len(scenarios) == 6
        assert [s.num_faults for s in scenarios] == [5, 5, 5, 10, 10, 10]
        # Distinct seeds per trial, deterministic across runs.
        seeds = [s.seed for s in scenarios]
        assert len(set(seeds)) == 6
        again = list(sweep_scenarios([5, 10], trials=3, width=12, base_seed=100))
        assert [s.faults for s in scenarios] == [s.faults for s in again]

    def test_sweep_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            list(sweep_scenarios([5], trials=0))
