"""Property tests of the scenario line grammar against two references.

Lines are drawn from the grammar with random spacing, then mutated by one
inserted, deleted or replaced character. ``reference`` derives what each line
means with a token-level reading of its own; ``parse_scenario`` must agree, and
must fail on every line the reference rejects with a ``ParseError`` located on
that line, never with another exception.

The message oracle is a copy of the character scanner ``parse_scenario`` used
to name the first fault of an event line or a header before both were read
from one table of pieces: ``_LineScanner``, ``_raise_event_error`` (which ends
in an ``AssertionError`` when it accepts the line) and the header read.  On
the seeded lines, on mutations of them and on mutated header lines, the
``ParseError`` of ``parse_scenario`` must equal the scanner's in line, column,
message and expected.
"""

from __future__ import annotations

import random
import re
from typing import NoReturn

import pytest

from shutter_sim import Event, ParseError, ValidationError, parse_scenario
from shutter_sim.dsl import _MAX_DIGITS

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


# --- the message oracle: the scanner, as it was --------------------------------

BUTTONS = ("yes", "no", "aux")
_SWITCHES = {
    "button": (BUTTONS, "button"),
    "hazard": (("on", "off"), "hazard switch"),
    "network": (("down", "up"), "network switch"),
}
_EVENT_WORDS = ("person_appear", "person_move", "person_leave", *_SWITCHES)


class _LineScanner:
    """Single-line cursor with 1-based column reporting."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line = line_no
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def fail(self, message: str, expected: str | None = None) -> ParseError:
        return ParseError(self.line, self.column, message, expected)

    def expect_char(self, ch: str) -> None:
        self.skip_spaces()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.fail(f"expected {ch!r}", expected=ch)
        self.pos += 1

    def ident(self, what: str) -> str:
        self.skip_spaces()
        start = self.pos
        if start >= len(self.text) or not (self.text[start].isalpha() or self.text[start] == "_"):
            raise self.fail(f"expected {what}", expected="identifier")
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def keyword(self, word: str) -> None:
        self.skip_spaces()
        col = self.column
        got = self.ident(f"keyword {word!r}")
        if got != word:
            raise ParseError(self.line, col, f"expected {word!r}, got {got!r}", expected=word)

    def choice(self, options: tuple[str, ...], what: str) -> str:
        self.skip_spaces()
        col = self.column
        got = self.ident(what)
        if got not in options:
            raise ParseError(self.line, col, f"unknown {what} {got!r}", expected="|".join(options))
        return got

    def integer(self, what: str) -> int:
        self.skip_spaces()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError(self.line, start + 1, f"expected {what}", expected="integer")
        if self.pos - start > _MAX_DIGITS:
            raise ParseError(self.line, start + 1, f"{what} too long",
                             expected=f"at most {_MAX_DIGITS} digits")
        return int(self.text[start:self.pos])

    def floating(self, what: str) -> float:
        self.skip_spaces()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            raise ParseError(self.line, start + 1, f"expected {what}", expected="number")
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            frac = self.pos
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            if self.pos == frac:
                raise ParseError(self.line, self.column, "expected digits after decimal point",
                                 expected="digit")
        return float(self.text[start:self.pos])

    def key(self, name: str) -> None:
        self.keyword(name)
        self.expect_char("=")

    def end(self) -> None:
        self.skip_spaces()
        if self.pos < len(self.text):
            raise self.fail("unexpected trailing input", expected="end of line")


def _skipped(line: str) -> bool:
    """A blank or comment line: nothing, or a ``#``, after its leading whitespace."""
    body = line.lstrip()
    return not body or body[0] == "#"


def _raise_event_error(raw: str, line_no: int) -> NoReturn:
    """Walk a line ``_EVENT_LINE`` rejected and raise the located ParseError."""
    scanner = _LineScanner(raw, line_no)
    scanner.expect_char("@")
    scanner.integer("tick")
    kind = scanner.choice(_EVENT_WORDS, "event")
    if kind in ("person_appear", "person_move"):
        scanner.key("id")
        scanner.integer("person id")
        scanner.key("x")
        scanner.floating("x coordinate")
        scanner.key("y")
        scanner.floating("y coordinate")
    elif kind == "person_leave":
        scanner.key("id")
        scanner.integer("person id")
    else:
        scanner.choice(*_SWITCHES[kind])
    scanner.end()
    raise AssertionError(f"line {line_no}: the scanner accepts a line _EVENT_LINE rejects")


def _read_header(text: str) -> None:
    # the line breaks Path.read_text's universal newlines reads: \r\n, \r and \n
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    first = 0  # comments and blank lines may precede the header
    while first < len(lines) and _skipped(lines[first]):
        first += 1
    header = _LineScanner(lines[first] if first < len(lines) else "", min(first + 1, len(lines)) or 1)
    header.keyword("scenario")
    name = header.ident("scenario name")
    header.keyword("ticks")
    duration = header.integer("tick count")
    header.end()


def located(err: ParseError) -> tuple[int, int, str, str | None]:
    return (err.line, err.column, err.message, err.expected)


def scanner_error(read, *args):
    """The located ParseError ``read(*args)`` raises; None when it reads its input."""
    try:
        read(*args)
    except ParseError as err:
        return located(err)
    except AssertionError:  # _raise_event_error read the whole line
        pass
    return None


def parse_error(text: str):
    """``parse_scenario``'s ParseError for ``text``; None when it parses, or
    fails only a rule of ``ScenarioScript``."""
    try:
        parse_scenario(text)
    except ParseError as err:
        return located(err)
    except ValidationError:
        pass
    return None


# --- the token reference --------------------------------------------------------


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


EDGE_EVENT_LINES = (
    "@5person_appear id=1x=1.0y=2.0",
    "@0person_move id=12x=-0.25y=3",
    "\t@ 7 \tperson_move\tid = 3 x = -0.0 y=-12.50\t",
    "@3person_leave id=4",
    "  @9 person_leave\tid=0 ",
    "@1button yes", "@1 button no", "\t@1\tbutton\taux\t",
    "@2hazard on", "@2 hazard off",
    "@4network down", "@4 network up ",
    # one tab as the only separator between two words
    "@1 button\tyes", "@0 person_move\tid=1 x=1 y=1", "@3 person_leave\tid=4",
    "@2 hazard\ton", "@4 network\tup",
)


@pytest.mark.parametrize("line", ["@0 network up", "@0 hazard off ", *EDGE_EVENT_LINES])
def test_optional_spacing_parses(line):
    assert check_line(line) == "accepted"


def grammar_header(rng: random.Random) -> str:
    parts = ["scenario", rng.choice(["s", "solo", "crowd_churn", "x1", "_a", "Ab_9"]),
             "ticks", str(rng.choice([0, 1, 40, rng.randint(0, 10**6)]))]
    seps = ["", " ", " ", " ", "\t", "  ", " \t"]
    return rng.choice(["", "", " ", "\t"]) + " ".join(p + rng.choice(seps) for p in parts)


def faults(outcomes) -> set[tuple[str, str | None]]:
    """The distinct (message, expected) pairs, quoted text left out of the message."""
    return {(re.sub(r"'[^']*'", "''", outcome[2]), outcome[3])
            for outcome in outcomes if outcome is not None}


def test_event_line_faults_match_the_scanner():
    rng = random.Random(71)
    lines = seeded_lines()
    lines += [mutate(rng, line) for line in lines]
    too_long = "1" * (_MAX_DIGITS + 1)
    lines += [f"@{too_long} button yes", f"@1 person_leave id={too_long}"]
    outcomes = []
    for line in lines:
        expected = None if _skipped(line) else scanner_error(_raise_event_error, line, 2)
        assert parse_error(f"scenario s ticks 1000000000\n{line}\n") == expected, repr(line)
        outcomes.append(expected)
    # the draw must reach many lines and every fault the scanner names
    assert sum(outcome is not None for outcome in outcomes) > 10000
    assert len(faults(outcomes)) >= 22  # every fault an event line can have


def test_header_faults_match_the_scanner():
    rng = random.Random(83)
    headers = []
    for _ in range(1500):
        header = grammar_header(rng)
        headers.append(header)
        for _ in range(4):
            mutated = header
            for _ in range(rng.randint(1, 2)):
                mutated = mutate(rng, mutated)
            headers.append(mutated)
    headers += ["", "# only a comment", "scenario s ticks " + "7" * (_MAX_DIGITS + 1)]
    outcomes = []
    for header in headers:
        text = header + "\n"
        expected = scanner_error(_read_header, text)
        assert parse_error(text) == expected, repr(header)
        outcomes.append(expected)
    assert sum(outcome is not None for outcome in outcomes) > 4000
    assert len(faults(outcomes)) >= 7  # every fault a header can have
    assert {outcome[0] for outcome in outcomes if outcome is not None} == {1, 2}


def test_numbers_of_exactly_the_digit_bound_parse():
    bound = "7" * _MAX_DIGITS
    assert parse_scenario(f"scenario s ticks {bound}\n").duration == int(bound)
    # an event line whose tick and person id are at the bound reaches the validator
    tick = "1" * _MAX_DIGITS
    with pytest.raises(ValidationError) as err:
        parse_scenario(f"scenario s ticks {bound}\n@{tick} person_leave id={tick}\n")
    assert str(err.value) == f"unknown person {tick} at tick {tick}"
