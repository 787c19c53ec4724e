"""Ablation: sensitivity of the MFP advantage to the cluster strength.

The paper's clustered fault distribution doubles the failure rate of the
eight neighbours of every inserted fault.  This ablation sweeps the
multiplier (2 = the paper's setting) and records how the number of
non-faulty nodes sacrificed by FB and MFP changes: heavier clustering makes
faulty blocks much worse while minimum polygons stay close to the fault
count, so the relative advantage of the paper's model grows.
"""


from repro.core.faulty_block import build_faulty_blocks
from repro.core.mfp import build_minimum_polygons
from repro.faults.scenario import generate_scenario

from conftest import record_result

FACTORS = (1.0, 2.0, 4.0, 8.0)
NUM_FAULTS = 400
WIDTH = 100
SEEDS = (0, 1)


def _sweep_cluster_factor():
    rows = []
    for factor in FACTORS:
        fb_total, mfp_total = 0, 0
        for seed in SEEDS:
            scenario = generate_scenario(
                num_faults=NUM_FAULTS,
                width=WIDTH,
                model="clustered",
                seed=seed,
                cluster_factor=factor,
            )
            topology = scenario.topology()
            fb_total += build_faulty_blocks(
                scenario.faults, topology=topology
            ).num_disabled_nonfaulty
            mfp_total += build_minimum_polygons(
                scenario.faults, topology=topology
            ).num_disabled_nonfaulty
        rows.append((factor, fb_total / len(SEEDS), mfp_total / len(SEEDS)))
    return rows


def test_cluster_factor_ablation(benchmark):
    rows = benchmark.pedantic(_sweep_cluster_factor, rounds=1, iterations=1)
    lines = [
        f"Cluster-factor ablation: {WIDTH}x{WIDTH} mesh, {NUM_FAULTS} faults",
        f"{'factor':>7} {'FB disabled':>12} {'MFP disabled':>13} {'MFP saving':>11}",
    ]
    for factor, fb, mfp in rows:
        saving = 1.0 - mfp / fb if fb else 0.0
        lines.append(f"{factor:>7.1f} {fb:>12.1f} {mfp:>13.1f} {saving:>11.2%}")
    record_result("ablation_cluster_factor", "\n".join(lines))

    # MFP never sacrifices more nodes than FB at any clustering strength.
    for _, fb, mfp in rows:
        assert mfp <= fb
    # Heavier clustering inflates faulty blocks.
    assert rows[-1][1] >= rows[0][1]
