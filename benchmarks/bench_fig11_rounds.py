"""Figure 11: average number of rounds for status determination.

Reproduces both panels of Figure 11 (random and clustered fault
distributions): rounds of neighbour information exchange needed by the
rectangular faulty block construction (FB), the sub-minimum faulty polygon
construction (FP), the centralized minimum faulty polygon construction
(CMFP) and the distributed one (DMFP), on the 100x100 mesh over the fault
sweep.  The paper's qualitative findings checked here:

* FP needs more rounds than FB (extra labelling-scheme-2 rounds);
* CMFP needs far fewer rounds than FB (components are much smaller than
  merged faulty blocks);
* DMFP needs more rounds than CMFP (the ring must circle each component)
  but remains well below FP on the random distribution.
"""

import pytest

from repro.api import SweepExecutor
from repro.sim.figures import figure11_series, format_series_table

from conftest import WORKERS, record_result


def _run_panel(distribution, fault_counts, trials, mesh_width):
    executor = SweepExecutor(workers=WORKERS)
    return executor.run(
        fault_counts,
        trials,
        width=mesh_width,
        distribution=distribution,
        include_rounds=True,
    )


@pytest.mark.parametrize("distribution", ["random", "clustered"])
def test_figure11_panel(benchmark, distribution, fault_counts, trials, mesh_width):
    points = benchmark.pedantic(
        _run_panel,
        args=(distribution, fault_counts, trials, mesh_width),
        rounds=1,
        iterations=1,
    )
    figure = figure11_series(points)
    record_result(f"figure11_{distribution}", format_series_table(figure))

    for index, _ in enumerate(figure.x_values):
        assert figure.series["FP"][index] >= figure.series["FB"][index]
        assert figure.series["CMFP"][index] <= figure.series["DMFP"][index]
    # At the high end of the sweep the centralized per-component emulation
    # needs fewer rounds than the whole-network FP labelling; on the random
    # distribution (where merged blocks dwarf the components) it also beats
    # FB and the distributed construction stays below FP.
    assert figure.series["CMFP"][-1] <= figure.series["FP"][-1]
    if distribution == "random":
        assert figure.series["CMFP"][-1] < figure.series["FB"][-1]
        assert figure.series["DMFP"][-1] <= figure.series["FP"][-1]
