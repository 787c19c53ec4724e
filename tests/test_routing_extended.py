"""Unit tests for the extended e-cube routing around fault regions."""

import pytest

from repro.core.mfp import build_minimum_polygons
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D
from repro.routing.extended_ecube import ExtendedECubeRouter
from repro.types import MessageType, Orientation


@pytest.fixture
def paper_router(figure2_region):
    """Router for the paper's Figure 2 example: a 10x10 mesh with the
    L-shaped fault polygon {(2,4), (3,4), (4,3)}."""
    return ExtendedECubeRouter(Mesh2D(10, 10), [figure2_region])


class TestFaultFreeRouting:
    def test_routes_follow_ecube_without_faults(self):
        router = ExtendedECubeRouter(Mesh2D(8, 8), [])
        result = router.route((1, 1), (6, 5))
        assert result.delivered
        assert result.is_minimal
        assert result.abnormal_hops == 0

    def test_route_to_self(self):
        router = ExtendedECubeRouter(Mesh2D(8, 8), [])
        result = router.route((3, 3), (3, 3))
        assert result.delivered
        assert result.hops == 0


class TestPaperFigure2Example:
    def test_route_from_1_3_to_6_4(self, paper_router):
        result = paper_router.route((1, 3), (6, 4))
        assert result.delivered
        # The message routes around the polygon counter-clockwise and
        # becomes normal again at (5,2), then follows the base e-cube
        # routing through (6,2) up to (6,4).
        assert (5, 2) in result.path
        assert (6, 2) in result.path
        assert result.path[-1] == (6, 4)
        assert result.abnormal_hops > 0

    def test_route_never_visits_disabled_nodes(self, paper_router, figure2_region):
        result = paper_router.route((1, 3), (6, 4))
        assert not set(result.path) & set(figure2_region)

    def test_source_or_destination_inside_region_fails(self, paper_router):
        assert not paper_router.route((2, 4), (0, 0)).delivered
        assert not paper_router.route((0, 0), (4, 3)).delivered
        assert paper_router.route((2, 4), (0, 0)).reason == "source disabled"

    def test_unaffected_routes_stay_minimal(self, paper_router):
        result = paper_router.route((0, 0), (9, 0))
        assert result.delivered and result.is_minimal


class TestOrientationRules:
    def test_ns_sn_orientation_is_dont_care(self):
        rule = ExtendedECubeRouter._orientation
        assert rule(MessageType.NS, (3, 5), (3, 0)) is Orientation.CLOCKWISE
        assert rule(MessageType.SN, (3, 0), (3, 5)) is Orientation.CLOCKWISE

    def test_we_bound_orientation(self):
        rule = ExtendedECubeRouter._orientation
        # Above the row of travel (destination row): clockwise.
        assert rule(MessageType.WE, (2, 6), (8, 4)) is Orientation.CLOCKWISE
        # Below the row of travel: counter-clockwise (the Figure 2 case).
        assert rule(MessageType.WE, (2, 3), (6, 4)) is Orientation.COUNTERCLOCKWISE

    def test_ew_bound_orientation_is_mirror(self):
        rule = ExtendedECubeRouter._orientation
        assert rule(MessageType.EW, (7, 6), (1, 4)) is Orientation.COUNTERCLOCKWISE
        assert rule(MessageType.EW, (7, 2), (1, 4)) is Orientation.CLOCKWISE


class TestRoutingAcrossConstructedRegions:
    def test_all_pairs_deliverable_around_a_single_polygon(self):
        region = {(4, 4), (4, 5), (5, 4), (5, 5), (6, 4)}
        router = ExtendedECubeRouter(Mesh2D(12, 12), [region])
        sources = [(0, 0), (0, 11), (11, 0), (11, 11), (3, 6), (8, 3)]
        destinations = [(9, 9), (2, 2), (11, 5), (0, 5), (7, 7)]
        for source in sources:
            for destination in destinations:
                result = router.route(source, destination)
                assert result.delivered, (source, destination, result.reason)
                assert not set(result.path) & region

    def test_detour_is_bounded_by_region_perimeter(self):
        region = {(4, y) for y in range(3, 8)}
        router = ExtendedECubeRouter(Mesh2D(12, 12), [region])
        result = router.route((1, 5), (8, 5))
        assert result.delivered
        assert result.detour <= 2 * len(region) + 4

    def test_routing_with_mfp_regions_from_a_scenario(self):
        # Polygons built from real fault patterns may touch each other
        # diagonally (the router treats that as an obstruction and gives
        # up), so the delivery rate is below 1.0 but still high.
        scenario = generate_scenario(num_faults=40, width=20, model="clustered", seed=21)
        construction = build_minimum_polygons(scenario.faults, topology=scenario.topology())
        router = ExtendedECubeRouter(scenario.topology(), construction.regions)
        delivered = 0
        attempted = 0
        for source in [(0, 0), (19, 19), (0, 19), (19, 0), (10, 10)]:
            for destination in [(5, 5), (15, 3), (3, 15), (18, 18)]:
                if router.is_disabled(source) or router.is_disabled(destination):
                    continue
                attempted += 1
                result = router.route(source, destination)
                delivered += result.delivered
        assert attempted > 0
        assert delivered / attempted >= 0.75

    def test_hop_budget_failure_is_reported(self):
        region = {(4, 4)}
        router = ExtendedECubeRouter(Mesh2D(10, 10), [region], max_hops=2)
        result = router.route((0, 4), (9, 4))
        assert not result.delivered
