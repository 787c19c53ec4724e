"""Tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_construct_defaults(self):
        args = build_parser().parse_args(["construct"])
        assert args.faults == 200
        assert args.distribution == "clustered"
        assert args.func.__name__ == "cmd_construct"

    def test_sweep_fault_counts(self):
        args = build_parser().parse_args(
            ["sweep", "--fault-counts", "10", "20", "--trials", "1"]
        )
        assert args.fault_counts == [10, 20]
        assert args.trials == 1


class TestCommands:
    def test_construct_prints_all_models(self, capsys):
        exit_code = main(
            ["construct", "--faults", "30", "--width", "15", "--seed", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        for model in ("FB", "FP", "MFP", "DMFP"):
            assert model in captured

    def test_construct_with_render(self, capsys):
        exit_code = main(
            ["construct", "--faults", "10", "--width", "10", "--render", "MFP"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "MFP grid" in captured
        assert "#" in captured

    def test_sweep_prints_figure_tables(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--width", "20",
                "--fault-counts", "10", "20",
                "--trials", "1",
                "--skip-distributed",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 9a" in captured
        assert "Figure 10a" in captured
        assert "Figure 11a" not in captured

    def test_sweep_with_chart_and_distributed(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--width", "15",
                "--fault-counts", "8", "16",
                "--trials", "1",
                "--chart",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 11a" in captured
        assert "legend:" in captured

    def test_route_prints_statistics(self, capsys):
        exit_code = main(
            [
                "route",
                "--faults", "20",
                "--width", "15",
                "--messages", "50",
                "--seed", "1",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "delivery" in captured
        assert "MFP" in captured

    def test_route_with_traffic_and_router(self, capsys):
        exit_code = main(
            [
                "route",
                "--faults", "15",
                "--width", "12",
                "--messages", "40",
                "--traffic", "transpose",
                "--router", "ecube",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "traffic: transpose, router: ecube" in captured
        assert "MFP" in captured

    def test_route_rejects_unknown_traffic(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--traffic", "nope"])

    def test_route_on_torus(self, capsys):
        # The --torus flag exercised end to end through the session path.
        exit_code = main(
            [
                "route",
                "--faults", "12",
                "--width", "10",
                "--messages", "30",
                "--torus",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "torus" in captured
        assert "MFP" in captured

    def test_sweep_on_torus(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--width", "10",
                "--fault-counts", "5",
                "--trials", "1",
                "--skip-distributed",
                "--torus",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 9a" in captured

    def test_sweep_routing_mode(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--routing",
                "--width", "12",
                "--fault-counts", "6", "12",
                "--trials", "1",
                "--traffic", "hotspot",
                "--messages", "30",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "delivery_rate" in captured
        assert "mean_detour" in captured
        assert "MFP" in captured

    def test_verify_reports_ok(self, capsys):
        exit_code = main(
            ["verify", "--faults", "40", "--width", "20", "--seed", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "MFP minimality" in captured
        assert "FAILED" not in captured

    def test_construct_on_torus(self, capsys):
        exit_code = main(
            ["construct", "--faults", "15", "--width", "12", "--torus"]
        )
        assert exit_code == 0
        assert "torus" in capsys.readouterr().out

    def test_experiments_index(self, capsys):
        assert main(["experiments"]) == 0
        captured = capsys.readouterr().out
        assert "fig9a" in captured and "fig11b" in captured

    def test_experiments_single_key(self, capsys):
        assert main(["experiments", "fig10a"]) == 0
        captured = capsys.readouterr().out
        assert "Figure 10(a)" in captured
        assert "bench_fig10_region_size.py" in captured


class TestInProcessCalls:
    @pytest.mark.parametrize(
        "argv",
        [
            ["route", "--faults", "10", "--width", "10", "--messages", "20"],
            ["simulate", "--width", "8", "--faults", "4", "--loads", "0.02",
             "--cycles", "16"],
            ["sweep", "--width", "10", "--fault-counts", "4", "--trials", "1",
             "--skip-distributed"],
        ],
        ids=["route", "simulate", "sweep"],
    )
    def test_commands_leave_the_environment_unchanged(self, argv, monkeypatch, capsys):
        # The environment reaches every later subprocess, so an in-process
        # main() call must not write to it.  Each call gets a private copy,
        # so a write cannot leak into later tests either.
        before = dict(os.environ)
        monkeypatch.setattr(os, "environ", dict(before))
        assert main(argv) == 0
        capsys.readouterr()
        assert os.environ == before
