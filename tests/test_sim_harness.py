"""Tests for the evaluation harness (metrics, construction sweeps, figure series)."""

import math

import pytest

from repro.api import SweepExecutor, collect_scenario_metrics
from repro.faults.scenario import generate_scenario
from repro.sim.figures import (
    figure9_series,
    figure10_series,
    figure11_series,
    format_series_table,
)
from repro.sim.metrics import ConstructionMetrics, ScenarioMetrics, SweepPoint

#: Every construction but the distributed one.
WITHOUT_DMFP = ("fb", "fp", "mfp", "cmfp")


class TestMetrics:
    def test_construction_metrics_totals(self):
        metrics = ConstructionMetrics(
            model="FB",
            num_faults=10,
            num_regions=3,
            disabled_nonfaulty=7,
            mean_region_size=5.0,
            rounds=4,
        )
        assert metrics.disabled_total == 17

    def test_scenario_metrics_accessors(self):
        scenario = ScenarioMetrics(num_faults=10, distribution="random", seed=0)
        scenario.add(ConstructionMetrics("FB", 10, 2, 20, 15.0, 5))
        scenario.add(ConstructionMetrics("MFP", 10, 4, 2, 3.0, 2))
        assert scenario.per_model["FB"].disabled_nonfaulty == 20
        assert scenario.per_model["MFP"].mean_region_size == 3.0
        assert scenario.per_model["FB"].rounds == 5
        assert scenario.saving_vs_fb("MFP") == pytest.approx(0.9)

    def test_saving_vs_fb_with_zero_baseline(self):
        scenario = ScenarioMetrics(num_faults=1, distribution="random", seed=0)
        scenario.add(ConstructionMetrics("FB", 1, 1, 0, 1.0, 0))
        scenario.add(ConstructionMetrics("MFP", 1, 1, 0, 1.0, 0))
        assert scenario.saving_vs_fb("MFP") == 0.0

    def test_sweep_point_averages(self):
        point = SweepPoint(x=10, distribution="random")
        for disabled in (10, 20):
            scenario = ScenarioMetrics(num_faults=10, distribution="random", seed=0)
            scenario.add(ConstructionMetrics("FB", 10, 1, disabled, 4.0, 3))
            point.scenarios.append(scenario)
        assert point.models() == ["FB"]
        assert point.mean("FB", "disabled_nonfaulty") == 15.0
        assert point.mean("FB", "mean_region_size") == 4.0
        assert point.mean("FB", "rounds") == 3.0

    def test_sweep_point_empty(self):
        point = SweepPoint(x=10, distribution="random")
        assert point.models() == []
        assert point.mean("FB", "disabled_nonfaulty") == 0.0


class TestCompareConstructions:
    def test_all_models_present(self):
        scenario = generate_scenario(num_faults=30, width=20, seed=0)
        metrics = collect_scenario_metrics(scenario)
        assert set(metrics.per_model) == {"FB", "FP", "MFP", "CMFP", "DMFP"}

    def test_distributed_can_be_skipped(self):
        scenario = generate_scenario(num_faults=30, width=20, seed=0)
        metrics = collect_scenario_metrics(scenario, WITHOUT_DMFP)
        assert "DMFP" not in metrics.per_model

    def test_monotone_disabled_counts(self):
        scenario = generate_scenario(num_faults=50, width=20, model="clustered", seed=1)
        disabled = {
            label: m.disabled_nonfaulty
            for label, m in collect_scenario_metrics(scenario, WITHOUT_DMFP).per_model.items()
        }
        assert disabled["MFP"] <= disabled["FP"] <= disabled["FB"]

    def test_dmfp_and_mfp_disable_the_same_nodes(self):
        scenario = generate_scenario(num_faults=40, width=20, model="clustered", seed=2)
        per_model = collect_scenario_metrics(scenario).per_model
        assert per_model["DMFP"].disabled_nonfaulty == per_model["MFP"].disabled_nonfaulty


class TestRunSweep:
    def test_sweep_shape(self):
        points = SweepExecutor(WITHOUT_DMFP).run([10, 20], trials=2, width=15, include_rounds=False)
        assert [p.x for p in points] == [10, 20]
        assert all(len(p.scenarios) == 2 for p in points)

    def test_sweep_is_reproducible(self):
        a = SweepExecutor(WITHOUT_DMFP).run([15], trials=2, width=15)
        b = SweepExecutor(WITHOUT_DMFP).run([15], trials=2, width=15)
        assert a[0].mean("FB", "disabled_nonfaulty") == b[0].mean("FB", "disabled_nonfaulty")


class TestFigureSeries:
    @pytest.fixture(scope="class")
    def small_points(self):
        # One small sweep shared by the three figure tests (keeps CI fast).
        return SweepExecutor().run(
            [20, 40, 60], trials=2, width=25, distribution="random", include_rounds=True
        )

    def test_figure9_series(self, small_points):
        figure = figure9_series(points=small_points, log10=False)
        assert figure.x_values == [20, 40, 60]
        assert set(figure.series) == {"FB", "FP", "MFP"}
        for index in range(3):
            assert (
                figure.series["MFP"][index]
                <= figure.series["FP"][index]
                <= figure.series["FB"][index]
            )

    def test_figure9_log_scale(self, small_points):
        linear = figure9_series(points=small_points, log10=False)
        logged = figure9_series(points=small_points, log10=True)
        for model in ("FB", "FP", "MFP"):
            for raw, log_value in zip(linear.series[model], logged.series[model]):
                if raw > 0:
                    assert log_value == pytest.approx(math.log10(raw))
                else:
                    assert log_value == -1.0

    def test_figure10_series(self, small_points):
        figure = figure10_series(points=small_points)
        assert set(figure.series) == {"FB", "FP", "MFP"}
        for index in range(3):
            assert figure.series["MFP"][index] <= figure.series["FB"][index]

    def test_figure11_series(self, small_points):
        figure = figure11_series(points=small_points)
        assert set(figure.series) == {"FB", "FP", "CMFP", "DMFP"}
        for index in range(3):
            assert figure.series["FP"][index] >= figure.series["FB"][index]
            assert figure.series["CMFP"][index] <= figure.series["DMFP"][index]

    def test_value_lookup_and_rows(self, small_points):
        figure = figure10_series(points=small_points)
        assert figure.value("FB", 40) == figure.series["FB"][1]
        rows = figure.as_rows()
        assert rows[0][0] == "faults"
        assert len(rows) == 4

    def test_format_series_table(self, small_points):
        text = format_series_table(figure9_series(points=small_points))
        assert "Figure 9a" in text
        assert "FB" in text and "MFP" in text
        assert len(text.splitlines()) >= 6
