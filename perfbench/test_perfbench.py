"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import shutter_sim as pkg  # noqa: E402
from shutter_sim import cli, dsl, interaction, sim  # noqa: E402,F401


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    make = gen.GENERATORS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)
    scenario = dsl.parse_scenario(make(7))
    assert scenario.duration > 0 and scenario.events


def _solo_traces() -> dict[str, str]:
    scenario = dsl.parse_scenario((ROOT / "scenarios" / "solo.scn").read_text(encoding="utf-8"))
    return {
        "bt": sim.serialize_trace(sim.run(interaction.build_photographer_bt(), scenario)),
        "transitions": sim.serialize_trace(sim.run(interaction.build_photographer_fsm(), scenario)),
    }


class _Planted:
    """A workload whose single operation returns the given traces of solo.scn."""

    pass_length = 1

    def __init__(self, traces: dict[str, str]):
        self.texts = {"solo.scn": (ROOT / "scenarios" / "solo.scn").read_text(encoding="utf-8")}
        self.traces = traces

    def op(self, pkg, state, index):
        return run.Outcome("solo.scn", 0.001, verdicts=1, traces=dict(self.traces))


def _failures(traces: dict[str, str]) -> int:
    bench = run.Bench(_Planted(traces), pkg, seconds=0)
    bench.operate(None, 0)
    assert bench.attempted == 1
    return bench.failed


def test_true_traces_pass():
    assert _failures(_solo_traces()) == 0


def test_wrong_greeting_count_is_a_failure():
    traces = _solo_traces()
    assert "take your photo?" in traces["bt"]
    traces["bt"] = traces["bt"].replace("take your photo?", "take a photo of the two of you?")
    assert _failures(traces) == 1


def test_corrupted_trace_line_is_a_failure():
    traces = _solo_traces()
    lines = traces["transitions"].splitlines(keepends=True)
    lines[3] = lines[3].replace(" emit=[", " emit=")
    traces["transitions"] = "".join(lines)
    assert _failures(traces) == 1


def test_greeting_oracle_counts_the_engaged_group_by_brute_force():
    roster = {1: (0.5, 0.0), 2: (1.2, 0.4), 3: (1.9, -0.1), 4: (9.0, 9.0), 5: (9.5, 9.0)}
    assert oracle.engaged_group_size(roster) == 3
    assert oracle.engaged_group_size({4: (9.0, 9.0)}) == 0


def _declared() -> dict[str, set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"0": {m["name"] for m in spec["end_to_end"]}, "1": {m["name"] for m in spec["per_layer"]}}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["corpus", *sorted(gen.GENERATORS)])
def test_every_printed_metric_is_declared(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared()[trace]


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
