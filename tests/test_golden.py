"""Golden traces: every controller configuration reproduces its checked-in bytes.

``tests/data/golden/<scenario>.<config>.trace`` holds the trace of each file in
``scenarios/`` under each configuration below, as written by
``shutter-sim run ... --out``. A change that alters what a controller emits,
or how a trace is serialized, fails here. ``bt-tree`` runs
``trees/photographer.tree``, the printed built-in tree, so it is held to the
``bt`` trace: the file and the builder must give the same bytes.

The seed-1 benchmark crowds, where people leave mid-session and the root cuts
the running session off, are pinned by the sha256 of each trace instead.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from shutter_sim import dsl, interaction, sim
from shutter_sim.bt import validate_tree
from shutter_sim.cli import main

from conftest import SCENARIO_DIR, TREE_FILE, perfbench_gen

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

CONFIGS = {
    "bt": ["--controller", "bt"],
    "bt-tree": ["--controller", "bt", "--tree", str(TREE_FILE)],
    "fsm-none": ["--controller", "fsm", "--fsm-mode", "none"],
    "fsm-transitions": ["--controller", "fsm", "--fsm-mode", "transitions"],
    "fsm-timeouts": ["--controller", "fsm", "--fsm-mode", "timeouts"],
}

GOLDEN_OF = {config: "bt" if config == "bt-tree" else config for config in CONFIGS}
SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.scn"))


def test_there_is_one_golden_trace_per_scenario_and_configuration():
    expected = {f"{s}.{c}.trace" for s in SCENARIOS for c in GOLDEN_OF.values()}
    assert len(SCENARIOS) == 8 and len(expected) == 32
    assert {p.name for p in GOLDEN_DIR.iterdir()} == expected


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_reproduces_the_golden_trace(scenario, config, tmp_path):
    out = tmp_path / "trace.txt"
    argv = ["run", *CONFIGS[config], "--scenario", str(SCENARIO_DIR / f"{scenario}.scn"),
            "--out", str(out)]
    assert main(argv) == 0
    golden = GOLDEN_DIR / f"{scenario}.{GOLDEN_OF[config]}.trace"
    assert out.read_bytes() == golden.read_bytes()


# sha256 of each seed-1 crowd's trace under the tree from trees/photographer.tree
# and under the machine in each --fsm-mode; the three modes write the same trace
CROWD_DIGESTS = {
    "crowd_still": ("f824fdc69b8f150a04133326b175740e7f7144f766c15eed9c9a54c924712b01",
                    "191608f7167d1b5405bea18ffc413c370bc3eee0ee63365c9633ebb4968ad4fe"),
    "crowd_churn": ("06541df157d255c4571c2b4fa5b657f0fa06d6dddd651bc3772c8afa29cc5e7d",
                    "6d95b610a69d27a8a3e3296d988f703822a19ecb51070c305358231d5ca0666f"),
}
FSM_MODES = ("none", "transitions", "timeouts")


@pytest.mark.parametrize("crowd", sorted(CROWD_DIGESTS))
def test_seed_1_crowds_reproduce_their_pinned_trace_digests(crowd):
    scenario = dsl.parse_scenario(getattr(perfbench_gen(), crowd)(1))
    catalogue = interaction.default_catalogue()
    tree = validate_tree(dsl.parse_tree(TREE_FILE.read_text(encoding="utf-8")), catalogue)
    machines = [interaction.build_photographer_fsm(mode, catalogue=catalogue) for mode in FSM_MODES]
    digests = [hashlib.sha256(sim.serialize_trace(sim.run(controller, scenario)).encode("utf-8"))
               .hexdigest() for controller in [tree, *machines]]
    tree_digest, fsm_digest = CROWD_DIGESTS[crowd]
    assert digests == [tree_digest] + [fsm_digest] * len(FSM_MODES)


@pytest.mark.parametrize("mode", FSM_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_both_writes_the_golden_tree_trace_then_the_machine_one(scenario, mode, tmp_path):
    # the one CLI path that runs two controllers over one parsed script, so
    # the machine reads the greeting sizes the tree's run left in its memo
    out = tmp_path / "trace.txt"
    argv = ["run", "--controller", "both", "--fsm-mode", mode,
            "--scenario", str(SCENARIO_DIR / f"{scenario}.scn"), "--out", str(out)]
    assert main(argv) == 0
    golden = [GOLDEN_DIR / f"{scenario}.{config}.trace" for config in ("bt", f"fsm-{mode}")]
    assert out.read_bytes() == b"".join(path.read_bytes() for path in golden)
