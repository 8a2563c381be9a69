"""Text formats: timed stimulus scenarios and behavior tree descriptions.

Scenario files are line oriented::

    scenario solo ticks 40
    @0 person_appear id=1 x=1.0 y=0.5
    @5 button yes
    # a comment
    @30 person_leave id=1

Spaces and tabs between the tokens of a scenario line are optional, as long as
two words do not run together (``@5person_appear id=1x=1.0y=2.0`` is valid);
numbers use the ASCII digits ``0-9`` only.

Tree files are brace structured and whitespace insensitive::

    fallback root {
      sequence wait {
        condition no_person
        action idle
      }
      ...
    }

A ``*`` after sequence/fallback marks the memory variant; ``guard(cond) name``
wraps exactly one child; ``action name dur=N`` overrides the step count.
Syntax errors raise ParseError with a 1-based line/column pointing at the
first offending character; referential problems raise ValidationError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite
from typing import NoReturn

from . import bt
from .errors import ParseError, ValidationError
from .world import BUTTONS, Event

_EVENT_WORDS = "person_appear|person_move|person_leave|button|hazard|network"
_SWITCH_KINDS = ("hazard_on", "hazard_off", "network_down", "network_up")
_NODE_WORDS = "sequence|fallback|parallel|guard|condition|action"
# Python's default limit for converting a digit string to int; a longer run
# of digits is a located syntax error instead of a ValueError from int().
_MAX_DIGITS = 4300


@dataclass(frozen=True)
class ScenarioScript:
    """A named, fixed-duration stimulus timeline, events sorted by tick.

    Construction checks every rule a run relies on, however the script was
    made, and raises ValidationError on the first event that breaks one: a
    positive duration; ticks in ``0..duration-1`` and in order; a known kind
    and a button from ``world.BUTTONS``; finite coordinates on every
    appearance and move; and a roster where a person appears only while absent
    and moves or leaves only while present.  ``world.apply_events`` relies on
    this and checks nothing.
    """

    name: str
    duration: int
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        duration = self.duration
        if duration < 1:
            raise ValidationError(f"scenario {self.name!r} needs a positive duration")
        present: set[int] = set()
        last = 0
        for ev in self.events:
            tick, kind, pid = ev.at_tick, ev.kind, ev.person_id
            if tick >= duration:
                raise ValidationError(f"event at {tick} beyond duration {duration}")
            if tick < last:
                where = "before tick 0" if tick < 0 else f"out of order after tick {last}"
                raise ValidationError(f"event at {tick} {where}")
            last = tick
            if kind == "person_appear":
                if pid in present:
                    raise ValidationError(f"person {pid} already present at tick {tick}")
                present.add(pid)
            elif kind == "person_move" or kind == "person_leave":
                if pid not in present:
                    raise ValidationError(f"unknown person {pid} at tick {tick}")
                if kind == "person_leave":
                    present.remove(pid)
            elif kind == "button_press":
                if ev.button not in BUTTONS:
                    raise ValidationError(f"unknown button {ev.button!r} at tick {tick}")
            elif kind not in _SWITCH_KINDS:
                raise ValidationError(f"unknown event kind {kind!r} at tick {tick}")
            if (kind == "person_appear" or kind == "person_move") and (
                ev.x is None or ev.y is None or not (isfinite(ev.x) and isfinite(ev.y))
            ):
                raise ValidationError(f"event {kind} at tick {tick} needs finite coordinates")


# --- scenario format ---------------------------------------------------------


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


# One event line, as _LineScanner reads it: spacing between tokens is
# optional, digits are ASCII, and an event or switch word must not run on into
# another word character (``person_appearid`` and ``yes7`` are single words).
_SP = r"[ \t]*"
_INT = rf"([0-9]{{1,{_MAX_DIGITS}}})"
_NUM = r"(-?[0-9]+(?:\.[0-9]+)?)"
_EVENT_LINE = re.compile(
    rf"{_SP}@{_SP}{_INT}{_SP}(?:"
    rf"(person_appear|person_move)(?!\w){_SP}id{_SP}={_SP}{_INT}"
    rf"{_SP}x{_SP}={_SP}{_NUM}{_SP}y{_SP}={_SP}{_NUM}"
    rf"|person_leave(?!\w){_SP}id{_SP}={_SP}{_INT}"
    rf"|button(?!\w){_SP}(yes|no|aux)(?!\w)"
    rf"|hazard(?!\w){_SP}(on|off)(?!\w)"
    rf"|network(?!\w){_SP}(down|up)(?!\w)"
    rf"){_SP}"
)


def parse_scenario(text: str) -> ScenarioScript:
    """Parse and validate a scenario; events come back stably sorted by tick."""
    lines = text.split("\n")
    first = 0  # comments and blank lines may precede the header
    while first < len(lines) and (not lines[first].strip() or lines[first].lstrip().startswith("#")):
        first += 1
    header = _LineScanner(lines[first] if first < len(lines) else "", min(first + 1, len(lines)) or 1)
    header.keyword("scenario")
    name = header.ident("scenario name")
    header.keyword("ticks")
    duration = header.integer("tick count")
    header.end()

    events: list[Event] = []
    append = events.append
    match = _EVENT_LINE.fullmatch
    for line_no, raw in enumerate(lines[first + 1:], start=first + 2):
        m = match(raw)
        if m is None:
            body = raw.lstrip(" \t")
            if not body or body[0] == "#":
                continue
            _raise_event_error(raw, line_no)
        tick, moved, pid, x, y, left, button, hazard, network = m.groups()
        at_tick = int(tick)
        if moved is not None:
            append(Event(at_tick, moved, int(pid), float(x), float(y)))
        elif left is not None:
            append(Event(at_tick, "person_leave", person_id=int(left)))
        elif button is not None:
            append(Event(at_tick, "button_press", button=button))
        elif hazard is not None:
            append(Event(at_tick, f"hazard_{hazard}"))
        else:
            append(Event(at_tick, f"network_{network}"))

    events.sort(key=lambda ev: ev.at_tick)  # stable: file order within a tick
    return ScenarioScript(name, duration, tuple(events))


def _raise_event_error(raw: str, line_no: int) -> NoReturn:
    """Walk a line ``_EVENT_LINE`` rejected and raise the located ParseError."""
    scanner = _LineScanner(raw, line_no)
    scanner.expect_char("@")
    scanner.integer("tick")
    kind = scanner.choice(tuple(_EVENT_WORDS.split("|")), "event")
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
    elif kind == "button":
        scanner.choice(("yes", "no", "aux"), "button")
    elif kind == "hazard":
        scanner.choice(("on", "off"), "hazard switch")
    else:  # network
        scanner.choice(("down", "up"), "network switch")
    scanner.end()
    raise AssertionError(f"line {line_no}: the scanner accepts a line _EVENT_LINE rejects")


# --- tree format -------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | "sym" | "eof"
    text: str
    line: int
    column: int


def _tokenize_tree(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch in " \t\r":
            col, i = col + 1, i + 1
        elif ch in "{}()*=":
            tokens.append(_Token("sym", ch, line, col))
            col, i = col + 1, i + 1
        elif ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("ident", text[start:i], line, start_col))
        elif "0" <= ch <= "9":
            start = i
            start_col = col
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
                col += 1
            if i - start > _MAX_DIGITS:
                raise ParseError(line, start_col, "number too long",
                                 expected=f"at most {_MAX_DIGITS} digits")
            tokens.append(_Token("int", text[start:i], line, start_col))
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}", expected=_NODE_WORDS)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _TreeParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_sym(self, ch: str) -> None:
        tok = self.advance()
        if tok.kind != "sym" or tok.text != ch:
            raise ParseError(tok.line, tok.column, f"expected {ch!r}", expected=ch)

    def expect_ident(self, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.column, f"expected {what}", expected="identifier")
        return tok

    def parse_node(self) -> bt.Node:
        tok = self.advance()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.column, "expected a node", expected=_NODE_WORDS)
        if tok.text in ("sequence", "fallback"):
            memory = False
            if self.peek().kind == "sym" and self.peek().text == "*":
                self.advance()
                memory = True
            name = self.expect_ident("node name").text
            children = self.parse_children(tok)
            cls = bt.Sequence if tok.text == "sequence" else bt.Fallback
            return cls(name, children, memory=memory)
        if tok.text == "parallel":
            name = self.expect_ident("node name").text
            return bt.Parallel(name, self.parse_children(tok))
        if tok.text == "guard":
            self.expect_sym("(")
            condition = self.expect_ident("guard condition").text
            self.expect_sym(")")
            name = self.expect_ident("node name").text
            self.expect_sym("{")
            child = self.parse_node()
            self.expect_sym("}")
            return bt.Guard(condition, name, child)
        if tok.text == "condition":
            return bt.Condition(self.expect_ident("condition name").text)
        if tok.text == "action":
            name = self.expect_ident("behavior name").text
            duration = None
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text == "dur":
                self.advance()
                self.expect_sym("=")
                dur_tok = self.advance()
                if dur_tok.kind != "int":
                    raise ParseError(dur_tok.line, dur_tok.column, "expected a duration",
                                     expected="integer")
                duration = int(dur_tok.text)
            return bt.Action(name, duration=duration)
        raise ParseError(tok.line, tok.column, f"unknown node kind {tok.text!r}",
                         expected=_NODE_WORDS)

    def parse_children(self, opener: _Token) -> list[bt.Node]:
        self.expect_sym("{")
        closer = self.peek()
        if closer.kind == "sym" and closer.text == "}":
            raise ParseError(closer.line, closer.column,
                             "composite requires at least one child", expected=_NODE_WORDS)
        children = []
        while not (self.peek().kind == "sym" and self.peek().text == "}"):
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError(tok.line, tok.column, "unexpected end of input", expected="}")
            children.append(self.parse_node())
        self.advance()  # the closing brace
        return children


def parse_tree(text: str) -> bt.Node:
    """Parse a tree description; names stay unresolved until validate_tree."""
    parser = _TreeParser(_tokenize_tree(text))
    root = parser.parse_node()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(trailing.line, trailing.column, "unexpected input after tree",
                         expected="end of input")
    return root


def print_tree(root: bt.Node) -> str:
    """Canonical rendering: two-space indent, one node per line, reparseable."""
    lines: list[str] = []

    def walk(node: bt.Node, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, bt.Condition):
            lines.append(f"{pad}condition {node.condition_name}")
        elif isinstance(node, bt.Action):
            suffix = f" dur={node.duration_override}" if node.duration_override is not None else ""
            lines.append(f"{pad}action {node.behavior_name}{suffix}")
        elif isinstance(node, bt.Guard):
            lines.append(f"{pad}guard({node.condition_name}) {node.name} {{")
            walk(node.child, depth + 1)
            lines.append(f"{pad}}}")
        else:
            star = "*" if getattr(node, "memory", False) else ""
            lines.append(f"{pad}{node.kind}{star} {node.name} {{")
            for child in node.children:
                walk(child, depth + 1)
            lines.append(f"{pad}}}")

    walk(root, 0)
    return "\n".join(lines) + "\n"
