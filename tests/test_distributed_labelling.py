"""The distributed labelling protocols agree with the vectorised sweeps.

The sweeps of :mod:`repro.core.labelling` update one padded buffer in
place and, on a torus, refresh its halo from the opposite edge every
round; the per-node message-passing programs of
:mod:`repro.distributed.labelling_protocol` are their oracle.  The
properties cover random and clustered faults on meshes and tori from 1x1
to 12x12: the 1- and 2-wide tori are where a node is its own or its
neighbour's neighbour twice over.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labelling import (
    apply_labelling_scheme_1,
    apply_labelling_scheme_2,
    faults_to_mask,
)
from repro.distributed.labelling_protocol import (
    run_distributed_scheme_1,
    run_distributed_scheme_2,
)
from repro.faults.scenario import generate_scenario
from repro.mesh.topology import Mesh2D, Torus2D


def as_map(mask):
    width, height = mask.shape
    return {(x, y): bool(mask[x, y]) for x in range(width) for y in range(height)}


def as_mask(labels, topology):
    return faults_to_mask(
        sorted(node for node, value in labels.items() if value),
        topology.width,
        topology.height,
    )


@st.composite
def fault_patterns(draw):
    """``(topology, faults)``: random or clustered faults, mesh or torus."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    torus = draw(st.booleans())
    topology = Torus2D(width, height) if torus else Mesh2D(width, height)
    if draw(st.sampled_from(["random", "clustered"])) == "random":
        cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        faults = sorted(draw(st.sets(cells, max_size=width * height)))
    else:
        scenario = generate_scenario(
            draw(st.integers(0, width * height)),
            width=width,
            height=height,
            model="clustered",
            seed=draw(st.integers(0, 2**16)),
            torus=torus,
        )
        faults = list(scenario.faults)
    return topology, faults


def assert_cap_raises(scheme, needed_rounds, call):
    """A cap of *needed_rounds* sweeps raises: the last sweep, which
    confirms the fixed point, is one more than the rounds counted."""
    with pytest.raises(RuntimeError, match=f"^labelling scheme {scheme} did not converge$"):
        call(needed_rounds)


class TestDistributedScheme1:
    @settings(max_examples=100, deadline=None)
    @given(fault_patterns())
    def test_matches_vectorised_labels_and_rounds(self, pattern):
        topology, faults = pattern
        distributed_map, rounds = run_distributed_scheme_1(topology, faults)
        fault_mask = faults_to_mask(faults, topology.width, topology.height)

        def sweep(max_rounds):
            return apply_labelling_scheme_1(fault_mask, topology, max_rounds=max_rounds)

        vectorised = sweep(rounds + 1)
        assert as_map(vectorised.labels) == distributed_map
        assert vectorised.rounds == rounds
        assert_cap_raises(1, rounds, sweep)
        # The default cap is 2 * (width + height) sweeps.
        if rounds < 2 * (topology.width + topology.height):
            assert sweep(None).rounds == rounds
        else:
            assert_cap_raises(1, None, sweep)

    def test_no_faults(self):
        topology = Mesh2D(5, 5)
        labels, rounds = run_distributed_scheme_1(topology, [])
        assert not any(labels.values())
        assert rounds == 0

    def test_single_fault(self):
        topology = Mesh2D(5, 5)
        labels, rounds = run_distributed_scheme_1(topology, [(2, 2)])
        assert labels[(2, 2)]
        assert sum(labels.values()) == 1
        assert rounds == 0


class TestDistributedScheme2:
    @settings(max_examples=100, deadline=None)
    @given(fault_patterns())
    def test_matches_vectorised_labels_and_rounds(self, pattern):
        topology, faults = pattern
        unsafe_map, _ = run_distributed_scheme_1(topology, faults)
        disabled_map, rounds = run_distributed_scheme_2(topology, faults, unsafe_map)
        fault_mask = faults_to_mask(faults, topology.width, topology.height)
        unsafe = as_mask(unsafe_map, topology)

        def sweep(max_rounds):
            return apply_labelling_scheme_2(
                fault_mask, unsafe, topology, max_rounds=max_rounds
            )

        vectorised = sweep(rounds + 1)
        assert as_map(vectorised.labels) == disabled_map
        assert vectorised.rounds == rounds
        assert_cap_raises(2, rounds, sweep)

    def test_faulty_nodes_never_reenabled(self):
        topology = Mesh2D(6, 6)
        faults = [(1, 1), (2, 2)]
        unsafe_map, _ = run_distributed_scheme_1(topology, faults)
        disabled_map, _ = run_distributed_scheme_2(topology, faults, unsafe_map)
        assert disabled_map[(1, 1)] and disabled_map[(2, 2)]

    def test_diagonal_pair_block_shrinks(self):
        topology = Mesh2D(6, 6)
        faults = [(2, 2), (3, 3)]
        unsafe_map, _ = run_distributed_scheme_1(topology, faults)
        disabled_map, _ = run_distributed_scheme_2(topology, faults, unsafe_map)
        assert not disabled_map[(2, 3)]
        assert not disabled_map[(3, 2)]
