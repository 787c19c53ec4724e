"""Tests for the parallel sweep executor (repro.api.executor)."""

import pytest

from repro.api import (
    DEFAULT_MODELS,
    SweepExecutor,
    TrialSpec,
    collect_scenario_metrics,
    run_trial,
)
from repro.core.components import clear_shape_memos
from repro.core.mfp import shape_rounds
from repro.faults.scenario import (
    TRIAL_SEED_STRIDE,
    derive_trial_seed,
    generate_scenario,
    sweep_scenarios,
)
from repro.sim.metrics import SweepPoint

ALL_LABELS = ("FB", "FP", "MFP", "CMFP", "DMFP")
FIGURE_METRICS = ("disabled_nonfaulty", "mean_region_size", "rounds")


def _custom_fb(faults, topology):
    """A module-level custom builder: it pickles by reference, the way a
    user-defined builder reaches spawned workers."""
    from repro.core.faulty_block import build_faulty_blocks

    return build_faulty_blocks(faults, topology=topology)


def _point_fingerprint(point):
    return tuple(
        tuple(point.mean(m, metric) for metric in FIGURE_METRICS) for m in ALL_LABELS
    )


class TestSeeding:
    def test_trial_seeds_are_spaced_and_unique(self):
        seeds = [
            derive_trial_seed(0, count_index, 3, trial)
            for count_index in range(4)
            for trial in range(3)
        ]
        assert len(set(seeds)) == len(seeds)
        # Within one point, consecutive trials are prime-stride apart.
        assert derive_trial_seed(0, 1, 3, 1) - derive_trial_seed(0, 1, 3, 0) == (
            TRIAL_SEED_STRIDE
        )

    def test_raising_trials_keeps_existing_trial_seeds(self):
        """Add-more-trials variance reduction: trial t of point i must see
        the same scenario whether the sweep runs 2 or 5 trials."""
        for count_index in range(3):
            for trial in range(2):
                assert derive_trial_seed(7, count_index, 2, trial) == (
                    derive_trial_seed(7, count_index, 5, trial)
                )

    def test_trial_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            derive_trial_seed(0, 0, 2, 2)

    def test_sweep_scenarios_use_derived_seeds(self):
        scenarios = list(sweep_scenarios([5, 10], trials=2, width=12, base_seed=3))
        assert [s.seed for s in scenarios] == [
            derive_trial_seed(3, i, 2, t) for i in range(2) for t in range(2)
        ]

    def test_executor_plan_matches_sweep_scenarios(self):
        executor = SweepExecutor(workers=1)
        specs = executor.plan([5, 10], 2, width=12, base_seed=3)
        scenario_seeds = [
            s.seed for s in sweep_scenarios([5, 10], trials=2, width=12, base_seed=3)
        ]
        assert [spec.seed for spec in specs] == scenario_seeds


class TestDeterminism:
    def test_two_runs_produce_identical_metrics(self):
        """Regression: a sweep is bit-for-bit reproducible run-to-run."""
        executor = SweepExecutor(workers=1)
        a = executor.run([10, 20], trials=2, width=15)
        b = executor.run([10, 20], trials=2, width=15)
        assert [_point_fingerprint(p) for p in a] == [
            _point_fingerprint(p) for p in b
        ]

    @pytest.mark.parametrize(
        "kind, axis, params",
        [
            ("construction", [8, 16], dict(width=12)),
            ("routing", [20], dict(width=16, messages=50)),
            ("latency", [0.02, 0.08], dict(num_faults=6, width=10, cycles=48)),
        ],
        ids=["construction", "routing", "latency"],
    )
    def test_every_kind_parallel_equals_serial(self, kind, axis, params):
        serial = SweepExecutor(workers=1).run(axis, 2, kind=kind, **params)
        parallel = SweepExecutor(workers=2).run(axis, 2, kind=kind, **params)
        assert len(serial) == len(axis)
        assert serial == parallel

    def test_model_subset_parallel_matches_serial(self):
        models = ("fb", "fp", "mfp", "cmfp")
        serial = SweepExecutor(models).run([10], trials=2, width=12)
        parallel = SweepExecutor(models, workers=2).run([10], trials=2, width=12)
        for m in ("FB", "FP", "MFP", "CMFP"):
            assert serial[0].mean(m, "disabled_nonfaulty") == parallel[0].mean(
                m, "disabled_nonfaulty"
            )


class TestExecution:
    def test_default_reducer_returns_sweep_points(self):
        points = SweepExecutor(workers=1).run([10, 20], trials=2, width=12)
        assert all(isinstance(p, SweepPoint) for p in points)
        assert [p.x for p in points] == [10, 20]
        assert all(len(p.scenarios) == 2 for p in points)

    def test_model_subset(self):
        executor = SweepExecutor(models=("fb", "mfp"), workers=1)
        points = executor.run([10], trials=1, width=12)
        assert set(points[0].scenarios[0].per_model) == {"FB", "MFP"}

    def test_invalid_model_fails_fast(self):
        with pytest.raises(KeyError):
            SweepExecutor(models=("fb", "nope"))

    def test_aliases_accepted_as_models(self):
        executor = SweepExecutor(models=("faulty-block", "distributed"), workers=1)
        assert executor.models == ("fb", "dmfp")

    def test_unknown_parameter_rejected(self):
        """Sweep parameters are the kind's trial-spec fields, nothing else."""
        with pytest.raises(TypeError, match="messages"):
            SweepExecutor(workers=1).plan([10], 1, messages=5)
        with pytest.raises(TypeError, match="include_rounds"):
            SweepExecutor(workers=1).plan([10], 1, kind="routing", include_rounds=False)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=1).run([10], trials=0, width=12)

    def test_fault_counts_accepts_iterator(self):
        """run() must not silently drain a generator input (regression)."""
        executor = SweepExecutor(models=("fb",), workers=1)
        from_iter = executor.run(iter([10, 20]), trials=1, width=12)
        from_list = executor.run([10, 20], trials=1, width=12)
        assert [p.x for p in from_iter] == [10, 20]
        assert [
            p.mean("FB", "disabled_nonfaulty") for p in from_iter
        ] == [p.mean("FB", "disabled_nonfaulty") for p in from_list]

    def test_run_trial_is_self_contained(self):
        spec = TrialSpec(num_faults=12, seed=99, width=12, models=("fb", "fp"))
        metrics = run_trial(spec)
        assert metrics.seed == 99
        assert set(metrics.per_model) == {"FB", "FP"}

    def test_collect_scenario_metrics_shares_mfp_build(self):
        scenario = generate_scenario(num_faults=25, width=15, seed=4)
        metrics = collect_scenario_metrics(scenario, models=DEFAULT_MODELS)
        assert metrics.per_model["MFP"].rounds == metrics.per_model["CMFP"].rounds
        assert (
            metrics.per_model["MFP"].disabled_nonfaulty
            == metrics.per_model["CMFP"].disabled_nonfaulty
        )

    def test_collect_scenario_metrics_builds_no_regions(self, region_builds):
        """The figure scalars come from region and cell counts: a trial
        never turns a label grid into FaultRegion objects."""
        scenario = generate_scenario(90, width=30, model="clustered", seed=3)
        metrics = collect_scenario_metrics(
            scenario, models=("fb", "fp", "mfp", "cmfp", "dmfp")
        )
        assert region_builds == []
        # (regions, disabled non-faulty, mean region size, rounds), as
        # computed by summing the sizes of eagerly built regions.
        assert {
            label: (m.num_regions, m.disabled_nonfaulty, m.mean_region_size, m.rounds)
            for label, m in metrics.per_model.items()
        } == {
            "FB": (46, 63, 153 / 46, 5),
            "FP": (50, 12, 102 / 50, 10),
            "MFP": (52, 8, 98 / 52, 10),
            "CMFP": (52, 8, 98 / 52, 10),
            "DMFP": (52, 8, 98 / 52, 35),
        }

    def test_warm_trial_builds_no_components(self, component_builds):
        """MFP, CMFP and DMFP read every component from the table and the
        shape memos: once the memos hold a trial's shapes, re-running it
        builds no FaultComponent, with the same figure scalars."""
        scenario = generate_scenario(90, width=30, model="clustered", seed=3)
        models = ("fb", "fp", "mfp", "cmfp", "dmfp")
        cold = collect_scenario_metrics(scenario, models=models)
        component_builds.clear()
        warm = collect_scenario_metrics(scenario, models=models)
        assert component_builds == []
        assert warm.per_model == cold.per_model
        assert {
            label: (m.num_regions, m.disabled_nonfaulty, m.rounds)
            for label, m in warm.per_model.items()
            if label in ("MFP", "CMFP", "DMFP")
        } == {"MFP": (52, 8, 10), "CMFP": (52, 8, 10), "DMFP": (52, 8, 35)}

    def test_include_rounds_false_zeroes_cmfp(self):
        scenario = generate_scenario(num_faults=25, width=15, seed=4)
        clear_shape_memos()
        metrics = collect_scenario_metrics(
            scenario, models=("mfp", "cmfp"), include_rounds=False
        )
        assert metrics.per_model["CMFP"].rounds == 0
        assert metrics.per_model["MFP"].rounds == 0
        assert (shape_rounds.hits, shape_rounds.misses) == (0, 0)
        with_rounds = collect_scenario_metrics(scenario, models=("mfp", "cmfp"))
        assert with_rounds.per_model["MFP"].rounds == with_rounds.per_model["CMFP"].rounds > 0


class TestWorkerRegistry:
    def test_run_trial_reregisters_custom_specs(self):
        """A spawned worker's fresh registry must learn custom specs shipped
        in the TrialSpec (regression for non-fork start methods)."""
        import pickle

        from repro.api import ConstructionSpec, get_construction
        from repro.api.registry import _REGISTRY

        spec = ConstructionSpec(
            key="custom-fb-exec-test",
            label="CFB",
            description="worker re-registration test",
            builder=_custom_fb,
        )
        trial = TrialSpec(
            num_faults=5,
            seed=1,
            width=10,
            models=("custom-fb-exec-test",),
            specs=(spec,),
        )
        # Simulate a spawn-started worker: the spec round-trips through
        # pickle and the registry does not contain the custom key.
        trial = pickle.loads(pickle.dumps(trial))
        _REGISTRY.pop("custom-fb-exec-test", None)
        try:
            metrics = run_trial(trial)
            assert set(metrics.per_model) == {"CFB"}
            assert get_construction("custom-fb-exec-test").label == "CFB"
        finally:
            _REGISTRY.pop("custom-fb-exec-test", None)

    def test_parallel_sweep_with_custom_registered_model(self):
        from repro.api import ConstructionSpec, register_construction
        from repro.api.registry import _REGISTRY

        spec = ConstructionSpec(
            key="custom-fb-exec-test2",
            label="CFB2",
            description="parallel custom model",
            builder=_custom_fb,
        )
        try:
            register_construction(spec)
            points = SweepExecutor(
                models=("custom-fb-exec-test2",), workers=2
            ).run([8], trials=2, width=10)
            assert set(points[0].scenarios[0].per_model) == {"CFB2"}
        finally:
            _REGISTRY.pop("custom-fb-exec-test2", None)
