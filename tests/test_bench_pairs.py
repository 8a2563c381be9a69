"""``tools/bench_pairs.py``, the paired benchmark comparison: its summary of canned runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _stdout(ticks: float, rss: float, correct: bool = True, digest: str = "ab12") -> str:
    """A run's standard output as perfbench/run.py prints it."""
    result = {"correct": correct, "attempted": 9, "failed": 0 if correct else 1, "metrics": {
        "fsm_ticks_per_s": {"value": ticks, "unit": "1/ref_s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
    }}
    return (f"traces_sha256 crowd-still seed=1 {digest}\n"
            f"fsm_ticks_per_s {ticks:.6g} 1/ref_s (reference seconds, see README)\n"
            f"{json.dumps(result)}\n")


BETTER = {"setup_s": "lower", "fsm_ticks_per_s": "higher", "peak_rss_mib": "lower"}


def test_the_summary_gives_medians_quartiles_gains_and_wins():
    tool = _tool()
    runs = [(_stdout(100, 25.0), _stdout(120, 25.5)), (_stdout(104, 25.0), _stdout(118, 24.5)),
            (_stdout(96, 25.0), _stdout(95, 25.5)), (_stdout(100, 25.0), _stdout(130, 25.0))]
    pairs = [tuple(tool.read_result(out)[0] for out in pair) for pair in runs]
    # setup_s is reported by no run, so it has no line
    assert tool.summarize(pairs, BETTER) == [
        "fsm_ticks_per_s: parent 100 [99, 101], change 119 [112.25, 122.5], +19.0%, "
        "won 3 of 4, gain beyond parent IQR: yes",
        "peak_rss_mib: parent 25 [25, 25], change 25.25 [24.875, 25.5], +1.0%, "
        "won 1 of 4, gain beyond parent IQR: no",
    ]
    assert tool.faults(pairs, ["ab12"] * 8) == []


def test_a_gain_within_the_parent_spread_is_not_beyond_it():
    tool = _tool()
    pairs = [(tool.read_result(_stdout(a, 25))[0], tool.read_result(_stdout(b, 25))[0])
             for a, b in [(90, 101), (110, 111), (100, 102)]]
    line, = tool.summarize(pairs, {"fsm_ticks_per_s": "higher"})
    assert line.endswith("won 3 of 3, gain beyond parent IQR: no")


def test_an_incorrect_run_or_a_changed_trace_voids_the_comparison():
    tool = _tool()
    parent, digest = tool.read_result(_stdout(100, 25))
    wrong, _ = tool.read_result(_stdout(120, 25, correct=False))
    assert digest == "ab12"
    assert tool.faults([(parent, wrong)], [digest, digest]) == ["pair 0 change: correct is false"]
    assert tool.faults([(parent, parent)], ["ab12", "cd34"]) == [
        "traces_sha256 differ between runs: ['ab12', 'cd34']"]
