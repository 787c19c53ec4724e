"""Tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.api import SweepExecutor
from repro.campaign import CampaignRunner
from repro.cli import build_parser, main, trial_flags
from repro.sim.figures import (
    figure9_series,
    figure10_series,
    figure11_series,
    format_series_table,
    latency_series,
    routing_series,
)


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

    @pytest.mark.parametrize("argv", [["sweep"], ["campaign", "run", "store"]])
    def test_trial_spec_flags_declare_no_default(self, argv):
        # The trial specs hold the only copy of every sweep default.
        args = build_parser().parse_args(argv)
        for name in trial_flags():
            assert getattr(args, name) is None, name
        assert args.fault_counts is None and args.loads is None

    def test_sweep_hands_the_executor_only_the_axis(self, monkeypatch):
        calls = []

        def run(self, axis, trials, **params):
            calls.append((axis, trials, params))
            raise SystemExit(0)

        monkeypatch.setattr(SweepExecutor, "run", run)
        with pytest.raises(SystemExit):
            main(["sweep", "--fault-counts", "4"])
        assert calls == [([4], 2, {"kind": "construction"})]


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

    def test_serve_reports_an_unusable_journal_in_one_line(self, tmp_path, capsys):
        journal = tmp_path / "daemon.journal"
        journal.write_text(
            '{"t":"snapshot","seq":1,"state":{"width":8,"height":8,'
            '"torus":false,"faults":[[1]],"version":0}}\n'
        )
        assert main(["serve", "--journal", str(journal)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("journal error: ")
        assert str(journal) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

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


#: The tables ``sweep`` prints per kind, made by the figure helpers.
KIND_TABLES = {
    "construction": lambda points: [
        figure9_series(points), figure10_series(points), figure11_series(points)
    ],
    "routing": lambda points: [
        routing_series(points, "delivery_rate"), routing_series(points, "mean_detour")
    ],
    "latency": lambda points: [
        latency_series(points, "mean_latency"), latency_series(points, "accepted_load")
    ],
}


class TestSweepIsCampaignRunWithoutAStore:
    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("construction", ["--fault-counts", "4", "8", "--width", "10",
                              "--distribution", "clustered", "--seed", "3"]),
            ("routing", ["--fault-counts", "4", "--width", "10", "--messages", "20",
                         "--traffic", "transpose"]),
            ("latency", ["--loads", "0.02", "0.08", "--width", "6", "--num-faults", "2",
                         "--cycles", "16", "--arrival", "bursty"]),
        ],
    )
    def test_same_tables_as_the_campaign_points(self, kind, flags, tmp_path, capsys):
        request = ["--kind", kind, "--trials", "2", *flags]
        assert main(["sweep", *request]) == 0
        printed = capsys.readouterr().out
        store = tmp_path / "store"
        assert main(["campaign", "run", str(store), *request, "--quiet"]) == 0
        capsys.readouterr()
        runner = CampaignRunner(None, store)
        try:
            points = runner.sweep_points()
        finally:
            runner.close()
        tables = KIND_TABLES[kind](points)
        assert printed == "".join(format_series_table(table) + "\n\n" for table in tables)

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("construction", ["--messages", "40"]),
            ("construction", ["--cycles", "99"]),
            ("routing", ["--skip-rounds"]),
            ("routing", ["--cycles", "99"]),
            ("latency", ["--skip-rounds"]),
            ("latency", ["--fault-counts", "4"]),
        ],
    )
    def test_sweep_refuses_a_flag_the_kind_does_not_take(self, kind, extra):
        axis = ["--loads", "0.02"] if kind == "latency" else ["--fault-counts", "4"]
        with pytest.raises(SystemExit, match=extra[0]):
            main(["sweep", "--kind", kind, *axis, "--trials", "1", "--width", "8", *extra])

    def test_latency_sweep_requires_loads(self):
        with pytest.raises(SystemExit, match="--loads"):
            main(["sweep", "--kind", "latency", "--trials", "1"])


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
