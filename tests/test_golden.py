"""The golden-output guards of ``benchmarks/golden.py``.

Synthetic references exercise every way a guard must fail, and every row
of the guard table is checked against its committed reference.  No bench
script runs here.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load(path: Path):
    """Import a file of ``benchmarks/``, which is not a package."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = load(BENCHMARKS / "golden.py")

FIELDS = ("meshes.*.enabled", "meshes.*.patterns.*.stats")

REFERENCE = {
    "schema": "bench/v1",
    "meshes": {
        "100": {
            "enabled": 9600,
            "patterns": {
                "uniform": {"seconds": 0.25, "stats": {"delivered": 1936, "failed": 64}},
                "transpose": {"seconds": 0.5, "stats": {"delivered": 1954, "failed": 46}},
            },
        },
        "200": {
            "enabled": 38400,
            "patterns": {
                "uniform": {"seconds": 1.5, "stats": {"delivered": 1900, "failed": 100}},
            },
        },
    },
}

#: Words that mark a timing or a timing-dependent measurement.
TIMING_WORDS = ("seconds", "speedup", "per_second", "_ms", "_rps", "maxrss", "ratio")


def fresh() -> dict:
    return copy.deepcopy(REFERENCE)


def all_leaves(document) -> dict:
    return golden.leaves(document, ())


class TestCompare:
    def test_identical_run_passes(self):
        assert golden.compare(REFERENCE, fresh(), FIELDS) == []

    def test_timing_only_change_passes(self):
        run = fresh()
        for mesh in run["meshes"].values():
            for pattern in mesh["patterns"].values():
                pattern["seconds"] *= 3
        assert golden.compare(REFERENCE, run, FIELDS) == []

    def test_edited_compared_value_fails_naming_path_and_values(self):
        run = fresh()
        run["meshes"]["100"]["patterns"]["uniform"]["stats"]["delivered"] = 1935
        assert golden.compare(REFERENCE, run, FIELDS) == [
            "meshes.100.patterns.uniform.stats.delivered: reference 1936, run 1935"
        ]

    def test_value_of_another_json_type_fails(self):
        run = fresh()
        run["meshes"]["100"]["enabled"] = 9600.0
        assert golden.compare(REFERENCE, run, FIELDS) == [
            "meshes.100.enabled: reference 9600, run 9600.0"
        ]

    def test_missing_configuration_fails(self):
        run = fresh()
        del run["meshes"]["200"]
        assert golden.compare(REFERENCE, run, FIELDS) == [
            "meshes.200.enabled: reference 38400, run missing",
            "meshes.200.patterns.uniform.stats.delivered: reference 1900, run missing",
            "meshes.200.patterns.uniform.stats.failed: reference 100, run missing",
        ]

    def test_missing_field_fails(self):
        run = fresh()
        del run["meshes"]["100"]["patterns"]["transpose"]["stats"]["failed"]
        assert golden.compare(REFERENCE, run, FIELDS) == [
            "meshes.100.patterns.transpose.stats.failed: reference 46, run missing"
        ]

    def test_configuration_the_reference_lacks_fails(self):
        run = fresh()
        run["meshes"]["100"]["patterns"]["hotspot"] = {"stats": {"delivered": 7}}
        assert golden.compare(REFERENCE, run, FIELDS) == [
            "meshes.100.patterns.hotspot.stats.delivered: reference missing, run 7"
        ]

    def test_zero_compared_fields_fails(self):
        reference = {"schema": "bench/v1", "meshes": {}}
        problems = golden.compare(reference, fresh(), FIELDS)
        assert "the reference holds no compared value" in problems
        assert "meshes.*.enabled: matches nothing in the reference" in problems
        assert golden.compare(REFERENCE, fresh(), ()) == [
            "the reference holds no compared value"
        ]

    def test_field_that_matches_nothing_fails(self):
        fields = FIELDS + ("meshes.*.patterns.*.stat",)
        assert golden.compare(REFERENCE, fresh(), fields) == [
            "meshes.*.patterns.*.stat: matches nothing in the reference"
        ]

    def test_star_matches_list_indices(self):
        reference = {"curve": [{"load": 0.01, "seconds": 1.0}, {"load": 0.02, "seconds": 2.0}]}
        run = copy.deepcopy(reference)
        run["curve"][1]["load"] = 0.03
        assert golden.compare(reference, run, ("curve.*.load",)) == [
            "curve.1.load: reference 0.02, run 0.03"
        ]


class TestRegenerate:
    def test_regen_then_check_passes_and_changes_only_compared_paths(self):
        run = fresh()
        run["meshes"]["100"]["patterns"]["uniform"]["stats"]["delivered"] = 1935
        run["meshes"]["100"]["patterns"]["uniform"]["seconds"] = 9.0
        run["meshes"]["200"]["enabled"] = 38399
        run["meshes"]["100"]["patterns"]["hotspot"] = {
            "seconds": 0.1,
            "stats": {"delivered": 7, "failed": 0},
        }
        reference = golden.regenerate(fresh(), run, FIELDS)
        assert golden.compare(reference, run, FIELDS) == []
        before, after = all_leaves(REFERENCE), all_leaves(reference)
        moved = {
            path
            for path in before.keys() | after.keys()
            if before.get(path, "absent") != after.get(path, "absent")
        }
        assert moved == {
            ("meshes", "100", "patterns", "uniform", "stats", "delivered"),
            ("meshes", "200", "enabled"),
            ("meshes", "100", "patterns", "hotspot", "stats", "delivered"),
            ("meshes", "100", "patterns", "hotspot", "stats", "failed"),
        }
        # The timings are still the reference's own; none is copied over.
        assert after[("meshes", "100", "patterns", "uniform", "seconds")] == 0.25

    def test_regen_drops_a_configuration_the_run_lacks(self):
        run = fresh()
        del run["meshes"]["200"]
        reference = golden.regenerate(fresh(), run, FIELDS)
        assert golden.compare(reference, run, FIELDS) == []
        assert list(reference["meshes"]) == ["100"]

    def test_regen_shortens_a_list_the_run_shortened(self):
        reference = {"curve": [{"load": 0.01, "seconds": 1.0}, {"load": 0.02, "seconds": 2.0}]}
        run = {"curve": [{"load": 0.01, "seconds": 3.0}]}
        golden.regenerate(reference, run, ("curve.*.load",))
        assert reference == {"curve": [{"load": 0.01, "seconds": 1.0}]}

    def test_regen_of_an_identical_run_changes_nothing(self):
        reference = golden.regenerate(fresh(), fresh(), FIELDS)
        assert json.dumps(reference, indent=2) == json.dumps(REFERENCE, indent=2)


@pytest.mark.parametrize("name", sorted(golden.GUARDS))
class TestGuardTable:
    def reference_text(self, name) -> str:
        path = golden.RESULTS / golden.GUARDS[name].reference
        assert path.is_file(), path
        return path.read_text()

    def test_reference_compares_clean_against_itself(self, name):
        guard = golden.GUARDS[name]
        reference = json.loads(self.reference_text(name))
        assert golden.compared(reference, guard.fields)
        assert golden.compare(reference, copy.deepcopy(reference), guard.fields) == []

    def test_regen_against_itself_is_byte_identical(self, name):
        guard = golden.GUARDS[name]
        text = self.reference_text(name)
        reference = golden.regenerate(json.loads(text), json.loads(text), guard.fields)
        assert json.dumps(reference, indent=2) + "\n" == text

    def test_no_timing_is_compared(self, name):
        guard = golden.GUARDS[name]
        reference = json.loads(self.reference_text(name))
        for path in golden.compared(reference, guard.fields):
            assert not any(word in str(path[-1]) for word in TIMING_WORDS), path

    def test_script_writes_runs_by_default_and_documents_its_guard(self, name):
        guard = golden.GUARDS[name]
        assert "--out" not in guard.argv
        script = load(BENCHMARKS / guard.script)
        assert script.DEFAULT_OUT.resolve().parent == golden.RUNS
        assert f"python benchmarks/golden.py check {name}" in script.__doc__


class TestMain:
    def planted(self, monkeypatch, edit):
        guard = golden.GUARDS["routing_engine"]
        run = json.loads((golden.RESULTS / guard.reference).read_text())
        edit(run)
        monkeypatch.setattr(golden, "run_guard", lambda name: run)

    def test_check_fails_naming_the_planted_path(self, monkeypatch, capsys):
        def edit(run):
            run["meshes"]["100"]["patterns"]["uniform"]["stats"]["delivered"] += 1

        self.planted(monkeypatch, edit)
        assert golden.main(["check", "routing_engine"]) == 1
        out = capsys.readouterr().out
        assert "meshes.100.patterns.uniform.stats.delivered" in out
        assert "FAILED: routing_engine" in out

    def test_check_fails_when_the_run_lacks_a_configuration(self, monkeypatch, capsys):
        self.planted(monkeypatch, lambda run: run["meshes"].pop("300"))
        assert golden.main(["check", "routing_engine"]) == 1
        assert "meshes.300.enabled: reference 86316, run missing" in capsys.readouterr().out

    def test_check_fails_when_the_script_fails(self, monkeypatch):
        monkeypatch.setattr(golden, "run_guard", lambda name: None)
        assert golden.main(["check", "kernel"]) == 1

    def test_regen_rewrites_only_the_moved_value(self, monkeypatch, tmp_path):
        guard = golden.GUARDS["routing_engine"]
        text = (golden.RESULTS / guard.reference).read_text()
        (tmp_path / guard.reference).write_text(text)
        monkeypatch.setattr(golden, "RESULTS", tmp_path)

        def edit(run):
            pattern = run["meshes"]["200"]["patterns"]["hotspot"]
            pattern["stats"]["delivered"] += 1
            pattern["batch_seconds"] *= 2

        self.planted(monkeypatch, edit)
        assert golden.main(["regen", "routing_engine"]) == 0
        old = text.splitlines()
        new = (tmp_path / guard.reference).read_text().splitlines()
        assert len(old) == len(new)
        moved = [(before, after) for before, after in zip(old, new) if before != after]
        assert len(moved) == 1
        assert moved[0][0].strip().startswith('"delivered"')

    def test_unknown_guard_is_refused(self):
        with pytest.raises(SystemExit) as exit_info:
            golden.main(["check", "no_such_guard"])
        assert exit_info.value.code == 2

