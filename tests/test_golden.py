"""Golden traces: every controller configuration reproduces its checked-in bytes.

``tests/data/golden/<scenario>.<config>.trace`` holds the trace of each file in
``scenarios/`` under each configuration below, as written by
``shutter-sim run ... --out``. A change that alters what a controller emits,
or how a trace is serialized, fails here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from shutter_sim.cli import main

from conftest import SCENARIO_DIR, TREE_FILE

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

CONFIGS = {
    "bt": ["--controller", "bt"],
    "bt-tree": ["--controller", "bt", "--tree", str(TREE_FILE)],
    "fsm-none": ["--controller", "fsm", "--fsm-mode", "none"],
    "fsm-transitions": ["--controller", "fsm", "--fsm-mode", "transitions"],
    "fsm-timeouts": ["--controller", "fsm", "--fsm-mode", "timeouts"],
}

SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.scn"))


def test_there_is_one_golden_trace_per_scenario_and_configuration():
    expected = {f"{s}.{c}.trace" for s in SCENARIOS for c in CONFIGS}
    assert len(SCENARIOS) == 8
    assert {p.name for p in GOLDEN_DIR.iterdir()} == expected


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_reproduces_the_golden_trace(scenario, config, tmp_path):
    out = tmp_path / "trace.txt"
    argv = ["run", *CONFIGS[config], "--scenario", str(SCENARIO_DIR / f"{scenario}.scn"),
            "--out", str(out)]
    assert main(argv) == 0
    golden = GOLDEN_DIR / f"{scenario}.{config}.trace"
    assert out.read_bytes() == golden.read_bytes()
