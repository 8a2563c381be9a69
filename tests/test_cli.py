"""Command line behavior: run, compare, check, report, and exit codes."""

from __future__ import annotations

import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points

import pytest

from shutter_sim.cli import main

from conftest import PKG_ROOT, SCENARIO_DIR, TREE_FILE

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

SOLO = str(SCENARIO_DIR / "solo.scn")


def _declared_console_script() -> str | None:
    with open(PKG_ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    return project.get("scripts", {}).get("shutter-sim")


def test_console_script_is_installed():
    # What an install turns into the `shutter-sim` launcher: the declared
    # entry point must resolve to cli.main, whose return value the launcher
    # hands to sys.exit.
    declared = _declared_console_script()
    assert declared == "shutter_sim.cli:main"
    entry = EntryPoint(name="shutter-sim", value=declared, group="console_scripts")
    loaded = entry.load()
    assert loaded is main
    assert loaded(["report"]) == 0


@pytest.mark.skipif(shutil.which("shutter-sim") is None,
                    reason="shutter-sim launcher not on PATH")
def test_installed_console_script_runs(tmp_path):
    report = subprocess.run(["shutter-sim", "report"], capture_output=True, text=True)
    assert report.returncode == 0
    assert "elements added per reactive feature" in report.stdout

    missing = str(tmp_path / "no_such.scn")
    check = subprocess.run(["shutter-sim", "check", "--scenario", missing],
                           capture_output=True, text=True)
    assert check.returncode == 2
    assert "error:" in check.stderr

    installed = entry_points(group="console_scripts", name="shutter-sim")
    assert [ep.value for ep in installed] == [_declared_console_script()]


def test_run_writes_a_trace_file(tmp_path):
    out = tmp_path / "trace.txt"
    assert main(["run", "--controller", "bt", "--scenario", SOLO, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 40
    assert lines[0].startswith("tick=0 ctl=bt status=")


def test_run_prints_to_stdout_by_default(capsys):
    assert main(["run", "--controller", "fsm", "--scenario", SOLO]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 40
    assert all(" ctl=fsm " in line for line in lines)


def test_run_both_concatenates_tree_then_machine(capsys):
    assert main(["run", "--controller", "both", "--scenario", SOLO]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 80
    assert " ctl=bt " in lines[0] and " ctl=fsm " in lines[40]


def test_run_accepts_a_tree_file(capsys):
    code = main([
        "run", "--controller", "bt", "--scenario", SOLO, "--tree", str(TREE_FILE),
    ])
    assert code == 0
    assert "say(Would you like me to take your photo?)" in capsys.readouterr().out


def test_run_fsm_mode_flag(capsys):
    assert main([
        "run", "--controller", "fsm", "--scenario", SOLO, "--fsm-mode", "timeouts",
    ]) == 0
    assert "ctl=fsm" in capsys.readouterr().out


def test_tree_flag_is_rejected_for_the_machine(capsys):
    code = main(["run", "--controller", "fsm", "--scenario", SOLO, "--tree", str(TREE_FILE)])
    assert code == 2
    assert "--tree only applies to the bt controller" in capsys.readouterr().err


def test_missing_input_files_exit_2(capsys):
    assert main(["run", "--controller", "bt", "--scenario", "no_such.scn"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario s ticks 5\n@9 button maybe\n", encoding="utf-8")
    assert main(["check", "--scenario", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text,located", [
    ("scenario s ticks \u00b2\n", "line 1, column 18: expected tick count"),
    ("scenario s ticks 5\n@\u00b2 button yes\n", "line 2, column 2: expected tick"),
    ("scenario s ticks 5\n@0 person_appear id=1 x=1.\u00b2 y=0.0\n",
     "line 2, column 27: expected digits after decimal point"),
    ("scenario s ticks 5\n@0 person_appear id=\u0663 x=1.0 y=0.0\n",
     "line 2, column 21: expected person id"),
], ids=["header-tick", "event-tick", "fraction", "arabic-indic-id"])
def test_non_ascii_digits_in_a_scenario_exit_2_with_a_location(tmp_path, capsys, text, located):
    bad = tmp_path / "bad.scn"
    bad.write_text(text, encoding="utf-8")
    assert main(["check", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {located}")


@pytest.mark.parametrize("duration,column", [("\u00b2", 19), ("1\u0663", 20)],
                         ids=["superscript", "arabic-indic"])
def test_non_ascii_digits_in_a_tree_exit_2_with_a_location(tmp_path, capsys, duration, column):
    bad = tmp_path / "bad.tree"
    bad.write_text(f"sequence s {{\n  action idle dur={duration}\n}}\n", encoding="utf-8")
    assert main(["check", "--scenario", SOLO, "--tree", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: line 2, column {column}: unexpected character {duration[-1]!r}")


LONG = "1" * 5000  # past Python's 4300-digit limit for int strings


@pytest.mark.parametrize("text,located", [
    (f"scenario s ticks {LONG}\n", "line 1, column 18: tick count too long"),
    (f"scenario s ticks 5\n@{LONG} button yes\n", "line 2, column 2: tick too long"),
    (f"scenario s ticks 5\n@0 person_leave id={LONG}\n", "line 2, column 20: person id too long"),
    (f"scenario s ticks 5\n@{LONG} dance\n", "line 2, column 2: tick too long"),
], ids=["header-tick", "event-tick", "person-id", "tick-of-a-bad-line"])
def test_overlong_digit_runs_in_a_scenario_exit_2_with_a_location(tmp_path, capsys, text, located):
    bad = tmp_path / "bad.scn"
    bad.write_text(text, encoding="utf-8")
    assert main(["check", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {located} (expected at most 4300 digits)\n"


def test_an_overlong_tree_duration_exits_2_with_a_location(tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text(f"sequence s {{\n  action idle dur={LONG}\n}}\n", encoding="utf-8")
    assert main(["check", "--scenario", SOLO, "--tree", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2, column 19: number too long (expected at most 4300 digits)\n")


@pytest.mark.parametrize("command", [["check"], ["run", "--controller", "bt"]])
def test_an_overflowing_coordinate_exits_2(tmp_path, capsys, command):
    # a 401-digit literal reads as float('inf')
    bad = tmp_path / "bad.scn"
    bad.write_text(f"scenario s ticks 5\n@0 person_appear id=1 x=1{'0' * 400} y=0.0\n",
                   encoding="utf-8")
    assert main([*command, "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: event person_appear at tick 0 needs finite coordinates\n")


def test_compare_equivalent_traces(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["run", "--controller", "bt", "--scenario", SOLO, "--out", str(a)])
    main(["run", "--controller", "fsm", "--scenario", SOLO, "--out", str(b)])
    assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_compare_divergent_traces(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    decline = str(SCENARIO_DIR / "solo_decline.scn")
    main(["run", "--controller", "bt", "--scenario", SOLO, "--out", str(a)])
    main(["run", "--controller", "bt", "--scenario", decline, "--out", str(b)])
    assert main(["compare", "--a", str(a), "--b", str(b)]) == 1
    assert capsys.readouterr().out.startswith("divergent at position 1:")


def test_check_summarizes_inputs(capsys):
    assert main(["check", "--scenario", SOLO, "--tree", str(TREE_FILE)]) == 0
    out = capsys.readouterr().out
    assert "scenario solo: 40 ticks, 3 events" in out
    assert "tree root: 23 nodes" in out


def test_report_prints_the_structural_costs(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "bt_nodes_added_for_abandonment" in out
    for key, value in (
        ("bt_nodes_added_for_abandonment", 1),
        ("fsm_transitions_added_for_abandonment", 7),
        ("bt_nodes_added_for_halt", 4),
        ("fsm_transitions_added_for_halt", 4),
    ):
        assert any(key in line and line.split()[-1] == str(value)
                   for line in out.splitlines())


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
