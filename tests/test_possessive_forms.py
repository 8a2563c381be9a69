"""The possessive grammars against their plain forms.

The scenario, trace and tree grammars make a quantifier possessive
(``*+``, ``++``, ``{m,n}+``) only where the piece after it can never start with a
character it consumes, so giving a character back could never lead to a match.
Each test here strips the possessive ``+`` from a built pattern and checks
that the two forms agree on the seeded mutation corpora the grammar tests
draw, and on digit runs at and around ``_MAX_DIGITS``: the same ``fullmatch``
and ``match`` results, groups and span, or the same ``finditer`` tokens.
"""

from __future__ import annotations

import random
import re

from shutter_sim import dsl, sim
from shutter_sim.dsl import _MAX_DIGITS

import test_scenario_lines
import test_trace_lines
import test_tree_tokens

# a quantifier (*, + or a bounded {m,n}) followed by the possessive +
_POSSESSIVE_SUFFIX = re.compile(r"(?<!\\)([*+}])\+")
RUNS = ["1" * n for n in (_MAX_DIGITS - 1, _MAX_DIGITS, _MAX_DIGITS + 1)]


def plain(pattern: re.Pattern) -> re.Pattern:
    """``pattern`` with every possessive quantifier made greedy again."""
    return re.compile(_POSSESSIVE_SUFFIX.sub(r"\1", pattern.pattern))


def found(m: re.Match | None) -> tuple | None:
    return None if m is None else (m.groups(), m.span())


def assert_same_matches(pattern: re.Pattern, texts: list[str]) -> tuple[int, int]:
    """Assert that ``pattern`` and its plain form fullmatch and match each text
    alike; return how many texts the possessive form fullmatched and matched."""
    other = plain(pattern)
    assert other.pattern != pattern.pattern
    whole_count = start_count = 0
    for text in texts:
        whole, start = found(pattern.fullmatch(text)), found(pattern.match(text))
        assert whole == found(other.fullmatch(text)), repr(text)
        assert start == found(other.match(text)), repr(text)
        whole_count += whole is not None
        start_count += start is not None
    return whole_count, start_count


def test_the_built_grammars_are_possessive():
    for pattern in (dsl._EVENT_LINE, dsl._TREE_TOKEN, sim._TRACE_LINE, sim._EMISSION):
        assert "*+" in pattern.pattern, pattern.pattern
    assert f"{{0,{_MAX_DIGITS - 1}}}+" in sim._TICK_FIELD.pattern
    assert f"{{1,{_MAX_DIGITS}}}+" in dsl._EVENT_LINE.pattern
    # the payload must backtrack to its item's last )
    assert r"\(([^;]*)\)" in sim._EMISSION.pattern
    assert plain(re.compile(r"[ \t]*+a[0-9]++b{1,3}+\++c")).pattern == r"[ \t]*a[0-9]+b{1,3}\++c"


def test_scenario_lines_match_as_the_plain_grammar_does():
    rng = random.Random(71)
    lines = test_scenario_lines.seeded_lines()
    lines += [test_scenario_lines.mutate(rng, line) for line in lines]
    for run in RUNS:
        lines += [f"@{run} button yes", f"@1 person_leave id={run}", f"@{run}person_leave id={run} ",
                  f"@1 person_move id={run} x={run} y=-{run}.{run}", f"@1 person_appear id=1 x={run}. y=0"]
    accepted, _ = assert_same_matches(dsl._EVENT_LINE, lines)
    assert accepted > 3000


def test_trace_lines_match_as_the_plain_grammar_does():
    lines = test_trace_lines.seeded_lines()
    for run in RUNS:
        lines += [f"tick={run} ctl=bt status=Running emit=[take_photo({run})] persons={run} hazard=0 net=1",
                  f"tick=0{run} ctl=fsm status=Greet emit=[] persons=0 hazard=1 net=0"]
    accepted, _ = assert_same_matches(sim._TRACE_LINE, lines)
    assert accepted > 500
    assert assert_same_matches(sim._TICK_FIELD, lines)[1] > accepted
    bodies = [line.partition(" emit=[")[2].rpartition("] ")[0] for line in lines]
    items = [item for body in bodies for item in body.split(";")]
    assert assert_same_matches(sim._EMISSION, items)[0] > 1000
    emission = plain(sim._EMISSION)
    for body in bodies:
        assert sim._EMISSION.findall(body) == emission.findall(body), repr(body)


def test_tree_texts_tokenize_as_the_plain_grammar_does():
    texts = test_tree_tokens.seeded_texts()
    texts += [f"action a dur={run}" for run in RUNS] + [f"sequence s{{action a dur={run}x}}" for run in RUNS]
    token = plain(dsl._TREE_TOKEN)
    assert token.pattern != dsl._TREE_TOKEN.pattern
    for text in texts:
        assert ([found(m) for m in dsl._TREE_TOKEN.finditer(text)]
                == [found(m) for m in token.finditer(text)]), repr(text)
