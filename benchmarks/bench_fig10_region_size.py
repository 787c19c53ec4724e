"""Figure 10: average size of a fault region (FB / FP / MFP).

Reproduces both panels of Figure 10 (random and clustered fault
distributions) on the 100x100 mesh.  The paper reports that the average
size of the minimum faulty polygon is the smallest of the three models and
that, under the clustered distribution, faulty blocks grow much faster than
minimum polygons as faults accumulate.
"""

import pytest

from repro.sim.experiments import run_sweep
from repro.sim.figures import figure10_series, format_series_table

from conftest import WORKERS, record_result


def _run_panel(distribution, fault_counts, trials, mesh_width):
    return run_sweep(
        fault_counts=fault_counts,
        trials=trials,
        width=mesh_width,
        distribution=distribution,
        include_distributed=False,
        include_rounds=False,
        workers=WORKERS,
    )


@pytest.mark.parametrize("distribution", ["random", "clustered"])
def test_figure10_panel(benchmark, distribution, fault_counts, trials, mesh_width):
    points = benchmark.pedantic(
        _run_panel,
        args=(distribution, fault_counts, trials, mesh_width),
        rounds=1,
        iterations=1,
    )
    figure = figure10_series(points)
    record_result(f"figure10_{distribution}", format_series_table(figure))

    for index, _ in enumerate(figure.x_values):
        assert (
            figure.series["MFP"][index]
            <= figure.series["FP"][index]
            <= figure.series["FB"][index]
        )
    # Block sizes grow with the fault count; minimum polygons barely do.
    fb_growth = figure.series["FB"][-1] - figure.series["FB"][0]
    mfp_growth = figure.series["MFP"][-1] - figure.series["MFP"][0]
    assert fb_growth >= mfp_growth


def test_figure10_clustered_blocks_larger_than_random(
    benchmark, fault_counts, trials, mesh_width
):
    """Cross-panel claim: clustered faulty blocks are larger than random ones."""

    def both():
        random_points = _run_panel("random", fault_counts[-2:], trials, mesh_width)
        clustered_points = _run_panel("clustered", fault_counts[-2:], trials, mesh_width)
        return random_points, clustered_points

    random_points, clustered_points = benchmark.pedantic(both, rounds=1, iterations=1)
    random_fb = figure10_series(random_points).series["FB"][-1]
    clustered_fb = figure10_series(clustered_points).series["FB"][-1]
    record_result(
        "figure10_cross_panel",
        "FB mean region size at {} faults: random={:.2f} clustered={:.2f} ratio={:.2f}".format(
            fault_counts[-1], random_fb, clustered_fb, clustered_fb / random_fb
        ),
    )
    assert clustered_fb > random_fb
