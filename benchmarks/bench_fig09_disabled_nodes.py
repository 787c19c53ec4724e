"""Figure 9: average number of non-faulty but disabled nodes (FB / FP / MFP).

Panel (a) uses the random fault distribution, panel (b) the clustered one.
The benchmark regenerates both panels on the paper's 100x100 mesh over the
0..800 fault sweep, times the sweep, persists the series tables under
``benchmarks/results/`` and checks the qualitative shape reported by the
paper: MFP <= FP <= FB everywhere, with FP re-enabling roughly half and MFP
roughly 90% of the non-faulty nodes the faulty blocks sacrifice.
"""

import pytest

from repro.api import SweepExecutor
from repro.sim.figures import figure9_series, format_series_table

from conftest import WORKERS, record_result


def _run_panel(distribution, fault_counts, trials, mesh_width):
    executor = SweepExecutor(("fb", "fp", "mfp", "cmfp"), workers=WORKERS)
    return executor.run(
        fault_counts,
        trials,
        width=mesh_width,
        distribution=distribution,
        include_rounds=False,
    )


@pytest.mark.parametrize("distribution", ["random", "clustered"])
def test_figure9_panel(benchmark, distribution, fault_counts, trials, mesh_width):
    points = benchmark.pedantic(
        _run_panel,
        args=(distribution, fault_counts, trials, mesh_width),
        rounds=1,
        iterations=1,
    )
    linear = figure9_series(points, log10=False)
    logged = figure9_series(points, log10=True)
    record_result(
        f"figure9_{distribution}",
        format_series_table(logged) + "\n\nraw node counts\n" + format_series_table(linear),
    )

    # Shape checks (the paper's qualitative result).
    for index, _ in enumerate(linear.x_values):
        assert (
            linear.series["MFP"][index]
            <= linear.series["FP"][index]
            <= linear.series["FB"][index]
        )
    # Savings at the highest fault count: FP ~50%, MFP ~90% in the paper.
    top = linear.x_values[-1]
    fb = linear.value("FB", top)
    if fb > 0:
        assert 1.0 - linear.value("FP", top) / fb >= 0.35
        assert 1.0 - linear.value("MFP", top) / fb >= 0.75
