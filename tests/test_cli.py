"""Command line behavior: run, compare, check, report, and exit codes."""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points

import pytest

from shutter_sim.cli import main
from shutter_sim.dsl import _MAX_DIGITS

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


def test_the_package_imports_only_the_standard_library():
    with open(PKG_ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
    allowed = sys.stdlib_module_names | {"shutter_sim"}
    sources = sorted((PKG_ROOT / "src" / "shutter_sim").glob("*.py"))
    assert sources
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{source.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []


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


LONG = "1" * (_MAX_DIGITS + 700)  # well past the digit bound


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
    assert capsys.readouterr().err == f"error: {located} (expected at most {_MAX_DIGITS} digits)\n"


def test_an_overlong_tree_duration_exits_2_with_a_location(tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text(f"sequence s {{\n  action idle dur={LONG}\n}}\n", encoding="utf-8")
    assert main(["check", "--scenario", SOLO, "--tree", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 2, column 19: number too long (expected at most {_MAX_DIGITS} digits)\n")


DIGITS_1000 = "1" * 1000


@pytest.mark.parametrize("name,text,args,located", [
    ("bad.scn", f"scenario s ticks {DIGITS_1000}\n", ["--scenario"],
     "line 1, column 18: tick count too long"),
    ("bad.scn", f"scenario s ticks 5\n@{DIGITS_1000} button yes\n", ["--scenario"],
     "line 2, column 2: tick too long"),
    ("bad.scn", f"scenario s ticks 5\n@0 person_leave id={DIGITS_1000}\n", ["--scenario"],
     "line 2, column 20: person id too long"),
    ("bad.tree", f"sequence s {{\n  action idle dur={DIGITS_1000}\n}}\n", ["--scenario", SOLO, "--tree"],
     "line 2, column 19: number too long"),
], ids=["header-tick", "event-tick", "person-id", "tree-duration"])
def test_digit_runs_are_bounded_by_the_interpreters_limit(tmp_path, name, text, args, located):
    # an interpreter started at the lowest int-string limit keeps the same
    # digit bound, so int() never sees a run it would reject
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": str(PKG_ROOT / "src")}
    check = subprocess.run([sys.executable, "-m", "shutter_sim.cli", "check", *args, str(bad)],
                           capture_output=True, text=True, env=env)
    assert check.returncode == 2
    assert check.stderr == f"error: {located} (expected at most 640 digits)\n"


def _trace_with(tick="0", persons="0", payload="1", signed_payload=None):
    payload = payload if signed_payload is None else "-" + signed_payload
    return (f"tick={tick} ctl=bt status=Running emit=[take_photo({payload})]"
            f" persons={persons} hazard=0 net=1\n")


@pytest.mark.parametrize("field,message", [
    ("tick", "tick has more than {} digits"),
    ("persons", "persons has more than {} digits"),
    ("payload", "take_photo payload has more than {} digits"),
    ("signed_payload", "take_photo payload has more than {} digits"),
])
def test_trace_digit_runs_exit_2_with_a_message_of_our_own(tmp_path, capsys, field, message):
    # at the bound and one digit past it, under the default limit in this
    # process and under a lower one in a fresh interpreter: int() never sees a
    # run it would reject
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    for digits in (_MAX_DIGITS + 1, _MAX_DIGITS + 700):
        bad.write_text(_trace_with(**{field: "1" * digits}), encoding="utf-8")
        assert main(["compare", "--a", str(bad), "--b", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: bad trace line 1: {message.format(_MAX_DIGITS)}\n"
    good.write_text(_trace_with(**{field: "1" * _MAX_DIGITS}), encoding="utf-8")
    assert main(["compare", "--a", str(good), "--b", str(good)]) == 0
    assert capsys.readouterr().out == "equivalent\n"

    good.write_text(_trace_with(**{field: "1" * 640}), encoding="utf-8")
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": str(PKG_ROOT / "src")}
    command = [sys.executable, "-m", "shutter_sim.cli", "compare", "--a"]
    at_limit = subprocess.run([*command, str(good), "--b", str(good)], capture_output=True,
                              text=True, env=env)
    assert (at_limit.returncode, at_limit.stdout, at_limit.stderr) == (0, "equivalent\n", "")
    bad.write_text(_trace_with(**{field: "1" * 641}), encoding="utf-8")
    past_limit = subprocess.run([*command, str(bad), "--b", str(good)], capture_output=True,
                                text=True, env=env)
    assert past_limit.returncode == 2
    assert past_limit.stderr == f"error: bad trace line 1: {message.format(640)}\n"


def _nested_guards(levels):
    # one line: levels - 1 guards of 18 characters each, then the leaf
    return "guard(always) g { " * (levels - 1) + "action idle" + " }" * (levels - 1) + "\n"


def _nested_sequences(levels):
    # one wrapper per line, so the leaf sits on line `levels`, column 1
    return "sequence a {\n" * (levels - 1) + "action idle\n" + "}\n" * (levels - 1)


@pytest.mark.parametrize("nest,located", [
    (_nested_guards, "line 1, column 1801"),
    (_nested_sequences, "line 101, column 1"),
], ids=["guards", "sequences"])
def test_tree_depth_is_bounded_for_check_and_run(tmp_path, nest, located):
    # a fresh interpreter has the CLI's own recursion budget, not pytest's
    scenario = tmp_path / "quiet.scn"
    scenario.write_text("scenario quiet ticks 3\n", encoding="utf-8")
    at_bound, past_bound = tmp_path / "at.tree", tmp_path / "past.tree"
    at_bound.write_text(nest(100), encoding="utf-8")
    past_bound.write_text(nest(101), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")}
    for command in (["check"], ["run", "--controller", "bt"]):
        args = [sys.executable, "-m", "shutter_sim.cli", *command, "--scenario", str(scenario)]
        ok = subprocess.run([*args, "--tree", str(at_bound)], capture_output=True, text=True, env=env)
        assert (ok.returncode, ok.stderr) == (0, "")
        bad = subprocess.run([*args, "--tree", str(past_bound)], capture_output=True, text=True,
                             env=env)
        assert bad.returncode == 2
        assert bad.stderr == (f"error: {located}: tree nested too deep "
                              "(expected at most 100 levels)\n")


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("scenario caf\xe9 ticks 5\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("make,command", [
    (_directory, ["check", "--scenario"]),
    (_not_utf8, ["check", "--scenario"]),
    (_not_utf8, ["check", "--scenario", SOLO, "--tree"]),
    (_not_utf8, ["compare", "--b", SOLO, "--a"]),
    (_directory, ["run", "--controller", "bt", "--scenario", SOLO, "--out"]),
], ids=["directory-scenario", "non-utf8-scenario", "non-utf8-tree", "non-utf8-trace",
        "directory-out"])
def test_unreadable_paths_exit_2_naming_the_path(tmp_path, capsys, make, command):
    path = str(make(tmp_path))
    assert main([*command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


@pytest.mark.parametrize("command", [["check"], ["run", "--controller", "bt"]])
def test_an_overflowing_coordinate_exits_2(tmp_path, capsys, command):
    # a 401-digit literal reads as float('inf')
    bad = tmp_path / "bad.scn"
    bad.write_text(f"scenario s ticks 5\n@0 person_appear id=1 x=1{'0' * 400} y=0.0\n",
                   encoding="utf-8")
    assert main([*command, "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: event person_appear at tick 0 needs finite coordinates\n")


@pytest.mark.parametrize("tree,message", [
    ("sequence s { action greet }", "tick 0: greeting requires at least one person"),
    ("action show_and_praise dur=9", "tick 7: photo index 4 out of range"),
], ids=["greet-nobody", "praise-past-the-session"])
def test_a_behavior_that_cannot_act_exits_2_naming_the_tick(tmp_path, capsys, tree, message):
    # nobody is present, so the greeting has no group and the praise runs past
    # the session's photos
    (tmp_path / "t.tree").write_text(tree + "\n", encoding="utf-8")
    (tmp_path / "e.scn").write_text("scenario e ticks 9\n", encoding="utf-8")
    assert main(["run", "--controller", "bt", "--tree", str(tmp_path / "t.tree"),
                 "--scenario", str(tmp_path / "e.scn")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"  # one line, no traceback


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsysbinary, monkeypatch):
    # the same calls, each in a fresh interpreter and then back to back in
    # this one, give the same exit codes and bytes; a one-leaf tree makes a
    # --tree that leaked into the next run visible
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the same width
    tree = tmp_path / "idle.tree"
    tree.write_text("action idle\n", encoding="utf-8")
    idle_trace, default_trace = tmp_path / "idle.txt", tmp_path / "default.txt"
    calls = [
        ["run", "--controller", "bt", "--scenario", SOLO, "--tree", str(tree)],
        ["run", "--controller", "bt", "--scenario", SOLO],
        ["run", "--controller", "bt", "--tree", str(tree)],  # no --scenario: usage error
        ["compare", "--a", str(idle_trace), "--b", str(default_trace)],
        ["check", "--scenario", SOLO],
    ]
    env = {**os.environ, "PYTHONPATH": str(PKG_ROOT / "src"), "COLUMNS": "80"}
    fresh = []
    for args in calls:
        done = subprocess.run([sys.executable, "-m", "shutter_sim.cli", *args],
                              capture_output=True, env=env)
        fresh.append((done.returncode, done.stdout, done.stderr))
        if args is calls[0]:
            idle_trace.write_bytes(done.stdout)
        elif args is calls[1]:
            default_trace.write_bytes(done.stdout)

    reused = []
    for args in calls:
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsysbinary.readouterr()
        reused.append((code, out, err))
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 1, 0]
    assert b"say(Would you like me to take your photo?)" in fresh[1][1]
    assert b"say(" not in fresh[0][1]
    assert fresh[2][2].startswith(b"usage: shutter-sim run ")


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


def test_compare_reports_a_truncated_trace_as_absent(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["run", "--controller", "bt", "--scenario", SOLO, "--out", str(a)])
    b.write_text("".join(a.read_text(encoding="utf-8").splitlines(keepends=True)[:3]),
                 encoding="utf-8")
    assert main(["compare", "--a", str(a), "--b", str(b)]) == 1
    assert capsys.readouterr().out == (
        "divergent at position 1: a=say(I am about to take your photo.) b=<absent>\n")


@pytest.mark.parametrize("line,message", [
    ("tick=0 controller=bt status=Success emit=[idle()] persons=0 hazard=0 net=1",
     "expected ctl="),
    ("tick=1 ctl=bt emit=[] persons=0 hazard=0 net=1",
     "expected tick= ctl= status= before emit=["),
    ("tick=1 ctl=bt status=Running", "expected emit=[ after status="),
])
def test_compare_refuses_a_trace_line_with_a_wrong_or_missing_field(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(line + "\n", encoding="utf-8")
    assert main(["compare", "--a", str(bad), "--b", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: bad trace line 1: {message}\n"


BOM = "\ufeff"


def test_a_leading_byte_order_mark_is_not_part_of_the_input(tmp_path, capsys):
    # an editor may save UTF-8 with a byte-order mark; each command reads the
    # file as if it had none
    scenario, tree, trace = tmp_path / "s.scn", tmp_path / "t.tree", tmp_path / "a.txt"
    scenario.write_text(BOM + (SCENARIO_DIR / "solo.scn").read_text(encoding="utf-8"), encoding="utf-8")
    tree.write_text(BOM + TREE_FILE.read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["check", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out == "scenario solo: 40 ticks, 3 events\n"
    assert main(["check", "--scenario", SOLO, "--tree", str(tree)]) == 0
    assert capsys.readouterr().out.endswith("tree root: 23 nodes\n")
    assert main(["run", "--controller", "bt", "--scenario", SOLO, "--out", str(trace)]) == 0
    marked = tmp_path / "b.txt"
    marked.write_text(BOM + trace.read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["compare", "--a", str(marked), "--b", str(trace)]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    # a decode error still counts bytes from the start of the file, the mark's included
    scenario.write_bytes(BOM.encode("utf-8") + "scenario caf\xe9 ticks 5\n".encode("latin-1"))
    assert main(["check", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err.endswith("(invalid continuation byte at byte 15)\n")


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
