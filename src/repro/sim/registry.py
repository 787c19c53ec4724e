"""Experiment registry: every table/figure of the paper, as data.

This module indexes the paper's experiments so that tooling (the CLI, the
benchmark harness, downstream notebooks) can enumerate what the paper
reports and how this repository regenerates it.  There is one entry per
figure panel plus one per ablation that goes beyond the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


#: Figure-series labels -> construction registry keys (repro.api.registry).
SERIES_CONSTRUCTION_KEYS: Dict[str, str] = {
    "FB": "fb",
    "FP": "fp",
    "MFP": "mfp",
    "CMFP": "cmfp",
    "DMFP": "dmfp",
}


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment (a figure panel or an ablation)."""

    key: str
    paper_reference: str
    description: str
    quantity: str
    series: Tuple[str, ...]
    workload: str
    modules: Tuple[str, ...]
    bench_target: str
    in_paper: bool = True

    @property
    def construction_keys(self) -> Tuple[str, ...]:
        """Registry keys of the constructions this experiment compares.

        Resolvable via :func:`repro.api.get_construction`, so tooling can
        rebuild an experiment's models without parsing the series labels.
        """
        return tuple(
            SERIES_CONSTRUCTION_KEYS[label]
            for label in self.series
            if label in SERIES_CONSTRUCTION_KEYS
        )

    def describe(self) -> str:
        """One-paragraph human-readable description."""
        origin = self.paper_reference if self.in_paper else "extension (not in the paper)"
        return (
            f"{self.key}: {self.description}\n"
            f"  source      : {origin}\n"
            f"  quantity    : {self.quantity}\n"
            f"  series      : {', '.join(self.series)}\n"
            f"  api keys    : {', '.join(self.construction_keys)}\n"
            f"  workload    : {self.workload}\n"
            f"  modules     : {', '.join(self.modules)}\n"
            f"  bench target: {self.bench_target}"
        )


_SWEEP_WORKLOAD = (
    "100x100 mesh, faults inserted sequentially, swept 100..800, "
    "averaged over trials"
)

EXPERIMENTS: Dict[str, Experiment] = {
    experiment.key: experiment
    for experiment in (
        Experiment(
            key="fig9a",
            paper_reference="Figure 9(a)",
            description="non-faulty but disabled nodes in the whole network, random faults",
            quantity="total disabled non-faulty nodes (log10 in the paper)",
            series=("FB", "FP", "MFP"),
            workload=_SWEEP_WORKLOAD + ", random fault distribution",
            modules=(
                "repro.core.faulty_block",
                "repro.core.sub_minimum",
                "repro.core.mfp",
                "repro.sim.figures",
            ),
            bench_target="benchmarks/bench_fig09_disabled_nodes.py::test_figure9_panel[random]",
        ),
        Experiment(
            key="fig9b",
            paper_reference="Figure 9(b)",
            description="non-faulty but disabled nodes in the whole network, clustered faults",
            quantity="total disabled non-faulty nodes (log10 in the paper)",
            series=("FB", "FP", "MFP"),
            workload=_SWEEP_WORKLOAD + ", clustered fault distribution",
            modules=(
                "repro.core.faulty_block",
                "repro.core.sub_minimum",
                "repro.core.mfp",
                "repro.faults.models",
                "repro.sim.figures",
            ),
            bench_target="benchmarks/bench_fig09_disabled_nodes.py::test_figure9_panel[clustered]",
        ),
        Experiment(
            key="fig10a",
            paper_reference="Figure 10(a)",
            description="average fault-region size, random faults",
            quantity="mean nodes (faulty + non-faulty) per region",
            series=("FB", "FP", "MFP"),
            workload=_SWEEP_WORKLOAD + ", random fault distribution",
            modules=("repro.core.regions", "repro.sim.figures"),
            bench_target="benchmarks/bench_fig10_region_size.py::test_figure10_panel[random]",
        ),
        Experiment(
            key="fig10b",
            paper_reference="Figure 10(b)",
            description="average fault-region size, clustered faults",
            quantity="mean nodes (faulty + non-faulty) per region",
            series=("FB", "FP", "MFP"),
            workload=_SWEEP_WORKLOAD + ", clustered fault distribution",
            modules=("repro.core.regions", "repro.faults.models", "repro.sim.figures"),
            bench_target="benchmarks/bench_fig10_region_size.py::test_figure10_panel[clustered]",
        ),
        Experiment(
            key="fig11a",
            paper_reference="Figure 11(a)",
            description="rounds of status determination, random faults",
            quantity="synchronous neighbour-exchange rounds",
            series=("FB", "FP", "CMFP", "DMFP"),
            workload=_SWEEP_WORKLOAD + ", random fault distribution",
            modules=(
                "repro.core.labelling",
                "repro.core.mfp",
                "repro.distributed.ring",
                "repro.distributed.notification",
                "repro.distributed.dmfp",
                "repro.sim.figures",
            ),
            bench_target="benchmarks/bench_fig11_rounds.py::test_figure11_panel[random]",
        ),
        Experiment(
            key="fig11b",
            paper_reference="Figure 11(b)",
            description="rounds of status determination, clustered faults",
            quantity="synchronous neighbour-exchange rounds",
            series=("FB", "FP", "CMFP", "DMFP"),
            workload=_SWEEP_WORKLOAD + ", clustered fault distribution",
            modules=(
                "repro.core.labelling",
                "repro.core.mfp",
                "repro.distributed.dmfp",
                "repro.sim.figures",
            ),
            bench_target="benchmarks/bench_fig11_rounds.py::test_figure11_panel[clustered]",
        ),
        Experiment(
            key="ablation-routing",
            paper_reference="motivated by Sections 1-2",
            description="impact of the fault-region model on extended e-cube routing",
            quantity="usable endpoints, delivery rate, mean hops/detour",
            series=("FB", "FP", "MFP"),
            workload="60x60 mesh, 200 clustered faults, 400 uniform-random messages",
            modules=(
                "repro.api.routing",
                "repro.routing.registry",
                "repro.routing.extended_ecube",
            ),
            bench_target="benchmarks/bench_ablation_routing.py::test_routing_ablation",
            in_paper=False,
        ),
        Experiment(
            key="ablation-traffic",
            paper_reference="extension of the Section 2.2 routing application",
            description="synthetic traffic suite routed over MFP regions",
            quantity="delivery rate, mean hops/detour per traffic pattern",
            series=("MFP",),
            workload=(
                "uniform / transpose / bit-reversal / hotspot / "
                "nearest-neighbour / permutation batches over one clustered "
                "fault pattern"
            ),
            modules=(
                "repro.routing.traffic",
                "repro.api.routing",
                "repro.routing.extended_ecube",
            ),
            bench_target="benchmarks/bench_traffic_patterns.py",
            in_paper=False,
        ),
        Experiment(
            key="ablation-cluster-factor",
            paper_reference="extension of the clustered fault model",
            description="sensitivity of FB/MFP waste to the clustering strength",
            quantity="disabled non-faulty nodes vs. neighbour failure-rate multiplier",
            series=("FB", "MFP"),
            workload="100x100 mesh, 400 faults, cluster factor 1..8",
            modules=("repro.faults.models", "repro.core.mfp"),
            bench_target="benchmarks/bench_ablation_cluster_factor.py::test_cluster_factor_ablation",
            in_paper=False,
        ),
        Experiment(
            key="latency-load",
            paper_reference="standard interconnect evaluation (extension)",
            description="open-loop latency vs. offered load over MFP regions",
            quantity="mean latency, accepted load, saturation/deadlock verdicts",
            series=("MFP",),
            workload=(
                "16x16/32x32 meshes, fault-free vs clustered faults, "
                "Poisson/bursty arrivals over the synthetic traffic suite"
            ),
            modules=(
                "repro.netsim",
                "repro.routing.traffic",
                "repro.api.routing",
            ),
            bench_target="benchmarks/bench_saturation.py",
            in_paper=False,
        ),
        Experiment(
            key="ablation-mesh-size",
            paper_reference="scalability argument of Section 3",
            description="construction rounds vs. mesh size at fixed fault density",
            quantity="disabled nodes and rounds for FB / CMFP / DMFP",
            series=("FB", "MFP", "DMFP"),
            workload="40..130 square meshes at 4% clustered fault density",
            modules=("repro.core.mfp", "repro.distributed.dmfp"),
            bench_target="benchmarks/bench_ablation_mesh_size.py::test_mesh_size_ablation",
            in_paper=False,
        ),
    )
}


def get_experiment(key: str) -> Experiment:
    """Look up one experiment by key (raises ``KeyError`` with suggestions)."""
    try:
        return EXPERIMENTS[key]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {key!r}; known keys: {known}") from None


def paper_experiments() -> List[Experiment]:
    """Return the experiments that correspond to figures of the paper."""
    return [experiment for experiment in EXPERIMENTS.values() if experiment.in_paper]


def extension_experiments() -> List[Experiment]:
    """Return the ablations that go beyond the paper."""
    return [experiment for experiment in EXPERIMENTS.values() if not experiment.in_paper]


def render_index() -> str:
    """Render the whole experiment index as text (used by the CLI/docs)."""
    blocks = [experiment.describe() for experiment in EXPERIMENTS.values()]
    return "\n\n".join(blocks)
