"""Shared fixtures: canonical fault patterns used across the test suite.

Several fixtures encode the paper's running examples so that the same
shapes exercise the geometry, the constructions and the distributed
protocol:

* ``figure2_region`` -- the L-shaped orthogonal convex polygon
  ``{(2,4), (3,4), (4,3)}`` used by the routing example of Figure 2.
* ``figure3_faults`` -- a ten-fault pattern in the spirit of Figure 3: one
  tight cluster that stays a single polygon plus a sparse diagonal cluster
  whose faulty block contains many non-faulty nodes.
* ``figure4_faults`` -- two nearby components that labelling scheme 1 would
  merge into one faulty block but that the component-based construction
  keeps separate (the situation of Figure 4).

``scalar_route`` routes what ``MeshSession.route`` routes through the scalar
oracle, :func:`repro.routing.engine.route_scalar`, called by name.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

import numpy as np
import pytest

from repro.mesh.topology import Mesh2D, Torus2D


Coord = Tuple[int, int]


@pytest.fixture
def region_builds(monkeypatch) -> List[int]:
    """The index of every ``FaultRegion`` built while the test runs."""
    from repro.core.regions import FaultRegion

    built: List[int] = []
    post_init = FaultRegion.__post_init__

    def counting_post_init(region) -> None:
        built.append(region.index)
        post_init(region)

    monkeypatch.setattr(FaultRegion, "__post_init__", counting_post_init)
    return built


@pytest.fixture
def component_builds(monkeypatch) -> List[int]:
    """The index of every ``FaultComponent`` built while the test runs."""
    from repro.core.components import FaultComponent

    built: List[int] = []
    post_init = FaultComponent.__post_init__

    def counting_post_init(component) -> None:
        built.append(component.index)
        post_init(component)

    monkeypatch.setattr(FaultComponent, "__post_init__", counting_post_init)
    return built


@pytest.fixture(scope="session")
def scalar_route():
    """``session.route(...)``'s batch, routed by ``route_scalar``.

    Regenerates the batch ``MeshSession.route`` generates for the same
    arguments and returns the oracle's :class:`RoutingStats` (with
    ``enabled`` set), to compare field by field with the session's.
    """
    from repro.routing.engine import route_scalar
    from repro.routing.stats import RoutingStats
    from repro.routing.traffic import get_traffic

    def route(session, construction="mfp", *, router="extended-ecube", traffic="uniform",
              messages=1000, seed=0, collect_results=False):
        context = session.routing.context(router, construction)
        batch = get_traffic(traffic).generate(context, messages, rng=np.random.default_rng(seed))
        stats = RoutingStats(collect_results=collect_results, enabled=context.num_enabled)
        return route_scalar(session.router(router, construction), batch, stats)

    return route


@pytest.fixture
def mesh10() -> Mesh2D:
    """A small 10x10 mesh used by most unit tests."""
    return Mesh2D(10, 10)


@pytest.fixture
def mesh20() -> Mesh2D:
    """A 20x20 mesh for tests that need a bit more room."""
    return Mesh2D(20, 20)


@pytest.fixture
def torus10() -> Torus2D:
    """A 10x10 torus."""
    return Torus2D(10, 10)


@pytest.fixture
def figure2_region() -> Set[Coord]:
    """The L-shaped fault polygon of the paper's Figure 2."""
    return {(2, 4), (3, 4), (4, 3)}


@pytest.fixture
def u_shape() -> Set[Coord]:
    """A U-shaped component (opens north): not orthogonal convex."""
    return {(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (2, 2)}


@pytest.fixture
def plus_shape() -> Set[Coord]:
    """A +-shaped component: orthogonal convex."""
    return {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}


@pytest.fixture
def o_shape() -> Set[Coord]:
    """A ring-shaped component with a closed concave region (a hole)."""
    return {
        (0, 0), (1, 0), (2, 0), (3, 0),
        (0, 1), (3, 1),
        (0, 2), (3, 2),
        (0, 3), (1, 3), (2, 3), (3, 3),
    }


@pytest.fixture
def staircase() -> Set[Coord]:
    """A diagonal staircase: 8-connected, orthogonal convex as-is."""
    return {(0, 0), (1, 1), (2, 2), (3, 3)}


@pytest.fixture
def figure3_faults() -> List[Coord]:
    """Ten faults: one dense cluster plus one sparse diagonal cluster."""
    return [
        # dense cluster (already nearly convex)
        (2, 2), (3, 2), (2, 3), (3, 3), (4, 3),
        # sparse diagonal cluster: its faulty block wastes many nodes
        (7, 6), (8, 7), (9, 8), (8, 8), (7, 8),
    ]


@pytest.fixture
def figure4_faults() -> List[Coord]:
    """Two nearby components that labelling scheme 1 merges into one block.

    Component A is an L-shape, component B a vertical domino one knight's
    move away.  They are not 8-adjacent (two components), but labelling
    scheme 1 turns the nodes between them unsafe, so the faulty block model
    produces a single rectangular block spanning both -- the situation of
    the paper's Figure 4.  Both components are orthogonal convex on their
    own, so the minimum construction disables no extra node at all.
    """
    return [
        (2, 2), (3, 2), (2, 3), (2, 4),  # component A (L-shape)
        (4, 4), (4, 5),                  # component B (vertical domino)
    ]


def region_disabled_set(construction) -> FrozenSet[Coord]:
    """Helper: the full disabled node set of a construction result."""
    return frozenset(construction.grid.disabled_set())
