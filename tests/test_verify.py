"""Unit tests for the construction verification utilities."""

import pytest

from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons
from repro.core.regions import FaultRegion
from repro.core.sub_minimum import build_sub_minimum_polygons
from repro.core.verify import (
    VerificationReport,
    compare_constructions_report,
    verify_coverage,
    verify_faulty_blocks,
    verify_minimality,
    verify_orthogonal_convexity,
)
from repro.faults.scenario import generate_scenario


@pytest.fixture
def scenario():
    return generate_scenario(num_faults=70, width=25, model="clustered", seed=4)


@pytest.fixture
def constructions(scenario):
    topology = scenario.topology()
    return {
        "FB": build_faulty_blocks(scenario.faults, topology=topology),
        "FP": build_sub_minimum_polygons(scenario.faults, topology=topology),
        "MFP": build_minimum_polygons(scenario.faults, topology=topology),
    }


class TestVerificationReport:
    def test_empty_report_is_ok(self):
        report = VerificationReport()
        assert report.ok
        assert "0/0" in report.summary()

    def test_failure_recorded_with_detail(self):
        report = VerificationReport()
        report.record("check A", True)
        report.record("check B", False, "something broke")
        assert not report.ok
        assert "check B: something broke" in report.failures
        assert "FAILED" in report.summary()


class TestVerifiers:
    def test_real_constructions_pass(self, scenario, constructions):
        assert verify_faulty_blocks(constructions["FB"], scenario.faults).ok
        assert verify_orthogonal_convexity(constructions["FP"], scenario.faults).ok
        assert verify_minimality(constructions["MFP"], scenario.faults).ok

    def test_cross_model_report_passes(self, scenario, constructions):
        report = compare_constructions_report(
            constructions["FB"], constructions["FP"], constructions["MFP"],
            scenario.faults,
        )
        assert report.ok

    def test_missing_fault_detected(self):
        regions = [FaultRegion(0, frozenset({(0, 0)}), frozenset({(0, 0)}))]
        report = verify_coverage(regions, [(0, 0), (5, 5)])
        assert not report.ok
        assert any("all faults covered" in failure for failure in report.failures)

    def test_overlapping_regions_detected(self):
        regions = [
            FaultRegion(0, frozenset({(0, 0), (0, 1)}), frozenset({(0, 0)})),
            FaultRegion(1, frozenset({(0, 1), (0, 2)}), frozenset({(0, 2)})),
        ]
        report = verify_coverage(regions, [(0, 0), (0, 2)])
        assert not report.ok

    def test_non_rectangular_block_detected(self):
        l_shape = FaultRegion(
            0, frozenset({(0, 0), (1, 0), (0, 1)}), frozenset({(0, 0)})
        )
        report = verify_faulty_blocks([l_shape], [(0, 0)])
        assert not report.ok

    def test_non_convex_polygon_detected(self):
        u_shape = FaultRegion(
            0,
            frozenset({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)}),
            frozenset({(0, 0)}),
        )
        report = verify_orthogonal_convexity([u_shape], [(0, 0)])
        assert not report.ok

    def test_non_minimal_construction_detected(self):
        # A faulty-block construction is convex but not minimal: it disables
        # the bounding box instead of the hull.
        faults = [(0, 0), (2, 2)]  # two diagonalish faults, not adjacent
        fb = build_faulty_blocks(faults, width=10)
        report = verify_minimality(fb, faults)
        # Either the blocks already equal the hulls (if the faults stayed
        # separate) or the minimality check flags the extra nodes; with
        # these two faults scheme 1 keeps them separate so it passes --
        # use a genuinely inflated region instead.
        inflated = [
            FaultRegion(
                0,
                frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
                frozenset({(0, 0)}),
            )
        ]
        assert not verify_minimality(inflated, [(0, 0)]).ok
        assert report.checks  # the FB report ran its checks either way


class TestMinimalityWithMergedRegions:
    def test_verify_accepts_hull_filled_merged_regions(self):
        """Regression: verify_minimality must apply the same merged-region
        convexity fill as the assembles (repro-mesh verify exited 1 on
        scenarios where piled polygons merged into a non-convex region)."""
        from repro.core.mfp import build_minimum_polygons
        from repro.distributed.dmfp import build_minimum_polygons_distributed
        from repro.faults.scenario import generate_scenario

        scenario = generate_scenario(
            num_faults=80, width=20, model="clustered", seed=21
        )
        topology = scenario.topology()
        mfp = build_minimum_polygons(scenario.faults, topology=topology)
        dmfp = build_minimum_polygons_distributed(scenario.faults, topology=topology)
        assert verify_minimality(mfp, scenario.faults).ok
        assert verify_minimality(dmfp, scenario.faults).ok
