"""Property test of the scenario event-line grammar against a small reference.

Lines are drawn from the grammar with random spacing, then mutated by one
inserted, deleted or replaced character. ``reference`` derives what each line
means with a token-level reading of its own; ``parse_scenario`` must agree, and
must fail on every line the reference rejects with a ``ParseError`` located on
that line, never with another exception.
"""

from __future__ import annotations

import random

import pytest

from shutter_sim import Event, ParseError, parse_scenario

HEADER = "scenario s ticks 1000000000"
SKIP = "skip"
MUTATION_ALPHABET = " \t@=.-_#0123456789abcdefghijklmnopqrstuvwxyz²é\u0663"  # ² is a digit, ٣ a decimal digit
SWITCHES = {"button": ("yes", "no", "aux"), "hazard": ("on", "off"), "network": ("down", "up")}
PERSON_KINDS = ("person_appear", "person_move", "person_leave")


def _lex(line: str) -> list[tuple[str, str, int, int]] | None:
    """(kind, text, start, end) tokens: punctuation, ASCII numbers and words."""
    tokens = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        start = i
        if ch in "@=-.":
            i += 1
            kind = ch
        elif ch in "0123456789":
            while i < len(line) and line[i] in "0123456789":
                i += 1
            kind = "num"
        elif ch.isalpha() or ch == "_":
            while i < len(line) and (line[i].isalnum() or line[i] == "_"):
                i += 1
            kind = "word"
        else:
            return None
        tokens.append((kind, line[start:i], start, i))
    return tokens


def reference(line: str) -> Event | str | None:
    """The event a line denotes, SKIP for a blank or comment line, None if malformed."""
    body = line.lstrip(" \t")
    if not body or body.startswith("#"):
        return SKIP
    tokens = _lex(line)
    if tokens is None:
        return None
    pos = 0

    def take(kind, text=None):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != kind or text not in (None, tokens[pos][1]):
            raise LookupError
        pos += 1
        return tokens[pos - 1]

    def adjacent(kind):  # the next token, only if it starts where the last one ended
        if pos < len(tokens) and tokens[pos][0] == kind and tokens[pos][2] == tokens[pos - 1][3]:
            return take(kind)
        return None

    def number() -> float:
        text = ""
        if pos < len(tokens) and tokens[pos][0] == "-":
            text = take("-")[1]
            digits = adjacent("num")
        else:
            digits = take("num")
        if digits is None:
            raise LookupError
        text += digits[1]
        if adjacent("."):
            fraction = adjacent("num")
            if fraction is None:
                raise LookupError
            text += "." + fraction[1]
        return float(text)

    def value(key):
        take("word", key)
        take("=")

    try:
        take("@")
        tick = int(take("num")[1])
        kind = take("word")[1]
        if kind in PERSON_KINDS:
            value("id")
            pid = int(take("num")[1])
            if kind == "person_leave":
                event = Event(tick, kind, person_id=pid)
            else:
                value("x")
                x = number()
                value("y")
                y = number()
                event = Event(tick, kind, person_id=pid, x=x, y=y)
        elif kind in SWITCHES:
            word = take("word")[1]
            if word not in SWITCHES[kind]:
                return None
            event = {
                "button": Event(tick, "button_press", button=word),
                "hazard": Event(tick, f"hazard_{word}"),
                "network": Event(tick, f"network_{word}"),
            }[kind]
        else:
            return None
    except LookupError:
        return None
    return event if pos == len(tokens) else None


def _number(rng: random.Random) -> str:
    text = rng.choice(["", "", "-"]) + str(rng.randint(0, 120))
    if rng.random() < 0.7:
        text += "." + str(rng.randint(0, 99)).zfill(rng.randint(1, 2))
    return text


def grammar_line(rng: random.Random) -> str:
    kind = rng.choice(PERSON_KINDS + ("person_move", "button", "hazard", "network"))
    parts = ["@", str(rng.randint(0, 99999)), kind]
    if kind in PERSON_KINDS:
        parts += ["id", "=", str(rng.randint(0, 500))]
        if kind != "person_leave":
            parts += ["x", "=", _number(rng), "y", "=", _number(rng)]
    else:
        parts.append(rng.choice(SWITCHES[kind]))
    seps = ["", " ", " ", " ", "\t", "  ", " \t"]
    return "".join(rng.choice(seps) + p for p in parts) + rng.choice(seps)


def mutate(rng: random.Random, line: str) -> str:
    i = rng.randint(0, len(line))
    op = rng.choice(("insert", "delete", "replace"))
    if op == "insert" or i == len(line):
        return line[:i] + rng.choice(MUTATION_ALPHABET) + line[i:]
    if op == "delete":
        return line[:i] + line[i + 1:]
    return line[:i] + rng.choice(MUTATION_ALPHABET) + line[i + 1:]


def seeded_lines(seed: int = 20231, count: int = 2000) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        line = grammar_line(rng)
        lines.append(line)
        lines.extend(mutate(rng, line) for _ in range(3))
    return lines


def check_line(line: str) -> str:
    """Parse one line in a scenario it can be valid in; return the outcome kind."""
    expected = reference(line)
    preamble = []
    if isinstance(expected, Event) and expected.kind in ("person_move", "person_leave"):
        preamble = [f"@0 person_appear id={expected.person_id} x=0.0 y=0.0"]
    line_no = len(preamble) + 2
    text = "\n".join([HEADER, *preamble, line]) + "\n"
    try:
        script = parse_scenario(text)
    except ParseError as err:
        assert expected is None, f"{line!r}: rejected ({err}), reference says {expected!r}"
        assert err.line == line_no, f"{line!r}: {err}"
        assert 1 <= err.column <= len(line) + 1, f"{line!r}: {err}"
        return "rejected"
    assert expected is not None, f"{line!r}: accepted as {script.events}, reference rejects it"
    if expected == SKIP:
        assert script.events == ()
        return "skipped"
    assert script.events[len(preamble):] == (expected,), line
    return "accepted"


def test_the_reference_reads_the_documented_shapes():
    assert reference("@5person_appear id=1x=1.0y=2.0") == Event(5, "person_appear", 1, 1.0, 2.0)
    assert reference("@5 person_appearid=1 x=1.0 y=2.0") is None
    assert reference("@5 button yes7") is None
    assert reference("@5 person_move id=1 x=1. y=2") is None
    assert reference("@² button yes") is None
    assert reference("  # note") == SKIP


def test_seeded_lines_parse_as_the_reference_reads_them():
    outcomes = {"accepted": 0, "rejected": 0, "skipped": 0}
    for line in seeded_lines():
        outcomes[check_line(line)] += 1
    # the draw must exercise every outcome, not only the happy path
    assert outcomes["accepted"] > 2000
    assert outcomes["rejected"] > 1500
    assert outcomes["skipped"] > 0


@pytest.mark.parametrize("line", [
    "@5person_appear id=1x=1.0y=2.0",
    "\t@ 7 \tperson_move\tid = 3 x = -0.0 y=-12.50\t",
    "@0 network up",
    "@0 hazard off ",
])
def test_optional_spacing_parses(line):
    assert check_line(line) == "accepted"
