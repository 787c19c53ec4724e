"""Reproducible fault scenarios.

A :class:`FaultScenario` freezes everything the constructions and the
benchmark harness need about one experiment instance: the topology size, the
distribution model and its parameters, the seed, and the resulting fault
set.  Scenarios are cheap to generate and hashable enough to be cached by
the experiment runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.faults.models import make_fault_model
from repro.mesh.topology import Mesh2D, Topology, Torus2D
from repro.types import Coord


@dataclass(frozen=True)
class FaultScenario:
    """One concrete fault pattern on one topology.

    ``faults`` preserves the insertion order used by the sequential fault
    models; the constructions themselves only depend on the resulting set.
    ``link_faults`` optionally carries faulty links as ``(a, b)`` endpoint
    pairs; consumers (``MeshSession.from_scenario``) fold them into the
    node-fault set via the conservative mapping of
    :mod:`repro.faults.links`.
    """

    width: int
    height: int
    model: str
    seed: int
    faults: Tuple[Coord, ...]
    torus: bool = False
    cluster_factor: float = 2.0
    link_faults: Tuple[Tuple[Coord, Coord], ...] = ()

    @property
    def num_faults(self) -> int:
        """Number of injected faults."""
        return len(self.faults)

    @property
    def num_link_faults(self) -> int:
        """Number of injected link faults."""
        return len(self.link_faults)

    def fault_set(self) -> frozenset:
        """Return the fault positions as a frozenset."""
        return frozenset(self.faults)

    def topology(self) -> Topology:
        """Instantiate the topology this scenario was generated for."""
        if self.torus:
            return Torus2D(self.width, self.height)
        return Mesh2D(self.width, self.height)

    def describe(self) -> str:
        """One-line human-readable description used in experiment logs."""
        kind = "torus" if self.torus else "mesh"
        text = (
            f"{self.width}x{self.height} {kind}, {self.num_faults} faults, "
            f"{self.model} distribution, seed={self.seed}"
        )
        if self.link_faults:
            text += f", {self.num_link_faults} link faults"
        return text


def generate_scenario(
    num_faults: int,
    width: int = 100,
    height: Optional[int] = None,
    model: str = "random",
    seed: int = 0,
    torus: bool = False,
    cluster_factor: float = 2.0,
) -> FaultScenario:
    """Generate one reproducible fault scenario.

    Defaults mirror the paper's simulation setup: a 100 x 100 mesh with the
    requested number of sequentially inserted faults.  *model* is matched
    ignoring case and surrounding whitespace, and the scenario records its
    canonical name.
    """
    if height is None:
        height = width
    model = model.strip().lower()
    topology: Topology = Torus2D(width, height) if torus else Mesh2D(width, height)
    rng = np.random.default_rng(seed)
    kwargs = {"cluster_factor": cluster_factor} if model == "clustered" else {}
    fault_model = make_fault_model(model, topology, rng, **kwargs)
    faults = tuple(fault_model.draw_faults(num_faults))
    return FaultScenario(
        width=width,
        height=height,
        model=model,
        seed=seed,
        faults=faults,
        torus=torus,
        cluster_factor=cluster_factor,
    )


#: Stride between the seeds of consecutive trials at one sweep point.  A
#: large prime keeps per-trial seeds well separated (instead of the adjacent
#: integers an additive ``base_seed + trial`` scheme would produce).
TRIAL_SEED_STRIDE = 10_007

#: Stride between the seed blocks of consecutive fault counts.  Large enough
#: that the trials of one point never collide with another point's.
COUNT_SEED_STRIDE = 1_000_003


def derive_trial_seed(
    base_seed: int,
    count_index: int,
    trials: int,
    trial: int,
    stride: int = TRIAL_SEED_STRIDE,
) -> int:
    """Derive the deterministic seed of one trial of a sweep.

    Every (fault-count index, trial) pair maps to its own seed
    ``base_seed + count_index * COUNT_SEED_STRIDE + trial * stride``.  The
    formula deliberately does not depend on the total trial count, so
    re-running a sweep with more trials keeps the fault patterns of the
    existing trials stable (add-more-trials variance reduction).  Both
    :func:`sweep_scenarios` and :class:`repro.api.SweepExecutor` use this
    helper, so serial and parallel sweeps see identical fault patterns.
    """
    if trial < 0 or trial >= trials:
        raise ValueError(f"trial {trial} outside range(0, {trials})")
    return base_seed + count_index * COUNT_SEED_STRIDE + trial * stride


def sweep_scenarios(
    fault_counts: Sequence[int],
    trials: int,
    width: int = 100,
    height: Optional[int] = None,
    model: str = "random",
    base_seed: int = 0,
    torus: bool = False,
    cluster_factor: float = 2.0,
) -> Iterator[FaultScenario]:
    """Yield scenarios for a fault-count sweep with several trials per point.

    Seeds are derived deterministically from ``base_seed`` so that the same
    sweep re-runs identically, and so that the FB / FP / MFP constructions
    are always compared on exactly the same fault patterns (paired
    comparison, as in the paper).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    for count_index, num_faults in enumerate(fault_counts):
        for trial in range(trials):
            seed = derive_trial_seed(base_seed, count_index, trials, trial)
            yield generate_scenario(
                num_faults=num_faults,
                width=width,
                height=height,
                model=model,
                seed=seed,
                torus=torus,
                cluster_factor=cluster_factor,
            )
