"""Text formats: timed stimulus scenarios and behavior tree descriptions.

Scenario files are line oriented::

    scenario solo ticks 40
    @0 person_appear id=1 x=1.0 y=0.5
    @5 button yes
    # a comment
    @30 person_leave id=1

Spaces and tabs between the tokens of a scenario line are optional, as long as
two words do not run together (``@5person_appear id=1x=1.0y=2.0`` is valid);
numbers use the ASCII digits ``0-9`` only.  A line ends at ``\r\n``, ``\r`` or
``\n``, as universal newlines read it; a line that is empty or starts with
``#`` after its leading whitespace is skipped, before the header or after it.

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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from math import isfinite
from operator import itemgetter
from typing import NoReturn

from . import bt
from .errors import ConfigurationError, ParseError, ValidationError
from .world import BUTTONS, Event, Frame, InteractionContext, PersonObservation, Roster, new_record

_NODE_WORDS = "sequence|fallback|parallel|guard|condition|action"
# The most digits a number in a scenario, tree or trace may have; a longer run
# is a located syntax error.  640 is the lowest nonzero int-string limit that
# CPython accepts (``sys.int_info.str_digits_check_threshold``), so int() takes
# every run this allows whatever PYTHONINTMAXSTRDIGITS or -X int_max_str_digits
# sets, and an input gets the same verdict under every interpreter setting.
_MAX_DIGITS = 640


# A coordinate's type is exactly one of these: a bool is not a coordinate, and
# isfinite would refuse a str with a bare TypeError.
_COORDINATE_TYPES = (float, int)


@dataclass(frozen=True, init=False)
class ScenarioScript:
    """A named, fixed-duration stimulus timeline, events sorted by tick.

    Construction takes ``world.Event`` records, or the plain rows in Event's
    field order that ``parse_scenario`` makes, checks every rule a run relies
    on and raises ValidationError on the first event that breaks one: six
    fields to a row; a positive duration and ticks in ``0..duration-1``, in
    order, all ``int`` (a ``bool`` is not one); a known kind and a button
    from ``world.BUTTONS``; an ``int`` person id and finite ``float`` or
    ``int`` coordinates on every person event that takes them (a ``bool`` is
    neither); and a person who appears only while absent and moves or leaves
    only while present.  The
    same walk, one pass over the rows by position, keeps the roster and builds
    ``frames``: one ``world.Frame`` per tick that has events, in tick order,
    with a copy of the roster after a tick that moves anyone and the previous
    frame's dict after any other.  Each roster is a ``world.Roster``, whose
    ``zones`` record, the engaged size and the zone groups' members, the
    catalogue's greeting fills in the first run that greets on it and every
    later run over this script reads.  The frames and
    the duration are all ``sim.run`` reads.  ``rows`` keeps the rows;
    ``events`` makes them ``Event`` records on first read, then keeps them.
    Equality, hashing and ``repr`` go by name, duration and events, so a
    filled size changes none of them; a copy or an unpickled script keeps
    its frames' sizes and which frames share a roster.
    """

    name: str
    duration: int
    rows: tuple[tuple, ...] = field(repr=False)  # the events in Event's field order
    frames: tuple[Frame, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, duration: int, events: tuple[tuple, ...]) -> None:
        rows = tuple(events)
        if type(duration) is not int:
            raise ValidationError(f"scenario {name!r} duration {duration!r} is not an integer")
        if duration < 1:
            raise ValidationError(f"scenario {name!r} needs a positive duration")
        try:
            frames = _frames(rows, duration)
        except (TypeError, ValueError, IndexError):  # a row's unpack or itemgetter(0), if any fails
            for position, row in enumerate(rows):
                try:
                    _, _, _, _, _, _ = row
                    row[0]
                except (TypeError, ValueError, IndexError):
                    raise ValidationError(f"event {position} is not a row of 6 fields") from None
            raise
        vars(self).update(name=name, duration=duration, rows=rows, frames=frames)

    @cached_property
    def events(self) -> tuple[Event, ...]:
        return tuple(map(Event._make, self.rows))

    def __repr__(self) -> str:
        return f"ScenarioScript(name={self.name!r}, duration={self.duration!r}, events={self.events!r})"


def _frames(rows: tuple[tuple, ...], duration: int) -> tuple[Frame, ...]:
    """``ScenarioScript``'s walk: the frames of ``rows``, or the ValidationError
    of the first event that breaks a rule.  A row that is not six fields fails
    its unpack or ``itemgetter(0)``, which the constructor turns into its
    refusal afterwards, so a well-formed walk pays for no length check."""
    # locals, as each is read once per person event
    finite_number, record, observation = isfinite, new_record, PersonObservation
    coordinate = _COORDINATE_TYPES
    roster: dict[int, PersonObservation] = {}
    persons = Roster()  # the last frame's roster
    frames: list[Frame] = []
    hazard, network = InteractionContext.hazard_hand_near_arm, InteractionContext.network_ok
    last = 0
    for tick, group in groupby(rows, itemgetter(0)):
        if type(tick) is not int:  # before the comparisons, which a str would break
            raise ValidationError(f"event tick {tick!r} is not an integer")
        if tick >= duration:
            raise ValidationError(f"event at {tick} beyond duration {duration}")
        if tick < last:
            where = "before tick 0" if tick < 0 else f"out of order after tick {last}"
            raise ValidationError(f"event at {tick} {where}")
        last = tick
        moved = False
        buttons: list[str] = []
        for at, kind, pid, x, y, button in group:
            if type(at) is not int:  # groupby groups by ==: True and 1.0 join a group keyed 1
                raise ValidationError(f"event tick {at!r} is not an integer")
            if kind == "person_appear" or kind == "person_move" or kind == "person_leave":
                if type(pid) is not int:  # before the roster lookups, which a list would break
                    raise ValidationError(f"person id {pid!r} at tick {tick} is not an integer")
                if kind == "person_leave":
                    if roster.pop(pid, None) is None:
                        raise ValidationError(f"unknown person {pid} at tick {tick}")
                else:
                    if kind == "person_appear":
                        if pid in roster:
                            raise ValidationError(f"person {pid} already present at tick {tick}")
                    elif pid not in roster:
                        raise ValidationError(f"unknown person {pid} at tick {tick}")
                    try:
                        finite = (type(x) in coordinate and type(y) in coordinate
                                  and finite_number(x) and finite_number(y))
                    except OverflowError:  # an int too large for a float
                        finite = False
                    if not finite:
                        raise ValidationError(f"event {kind} at tick {tick} needs finite coordinates")
                    roster[pid] = record(observation, (pid, x, y))
                moved = True
            elif kind == "button_press":
                if button not in BUTTONS:
                    raise ValidationError(f"unknown button {button!r} at tick {tick}")
                buttons.append(button)
            elif kind == "hazard_on" or kind == "hazard_off":
                hazard = kind == "hazard_on"
            elif kind == "network_down" or kind == "network_up":
                network = kind == "network_up"
            else:
                raise ValidationError(f"unknown event kind {kind!r} at tick {tick}")
        if moved:
            persons = Roster(roster)
        frames.append(new_record(Frame, (tick, persons, tuple(buttons), hazard, network)))
    return tuple(frames)


# --- scenario format ---------------------------------------------------------

# A scenario line is a table of pieces ``(kind, arg, what)``: a ``sym`` (the
# text ``arg``), an ``int``, a ``num``, a ``keyword`` (the identifier ``arg``)
# or a ``word`` (an identifier from the set ``arg``, any if None).  ``what``
# names the piece in its errors; ints, nums and words are captured.
# ``_EVENT_LINE`` is built from these tables, and ``_walk`` reads them.
_EQ = ("sym", "=", None)
_HEADER = (("keyword", "scenario", None), ("word", None, "scenario name"),
           ("keyword", "ticks", None), ("int", None, "tick count"))
_TICK = (("sym", "@", None), ("int", None, "tick"))
# One alternative per event kind, or per kinds with the same fields; its first
# piece names the kind, and is captured only when it names one of several.
_EVENTS = (
    (("word", ("person_appear", "person_move"), "event"), ("keyword", "id", None), _EQ,
     ("int", None, "person id"), ("keyword", "x", None), _EQ, ("num", None, "x coordinate"),
     ("keyword", "y", None), _EQ, ("num", None, "y coordinate")),
    (("keyword", "person_leave", None), ("keyword", "id", None), _EQ, ("int", None, "person id")),
    (("keyword", "button", None), ("word", BUTTONS, "button")),
    (("keyword", "hazard", None), ("word", ("on", "off"), "hazard switch")),
    (("keyword", "network", None), ("word", ("down", "up"), "network switch")),
)
_CAPTURED = ("int", "num", "word")
_SPACING = re.compile(r"[ \t]*+")
_DIGITS = re.compile(r"[0-9]*")
_NUMBER = re.compile(r"-?([0-9]*)(\.[0-9]*)?")
_WORD = re.compile(r"\w*")  # \w is str.isalnum() or "_", as an identifier continues
# The quantifiers of the event line, like those of ``_TREE_TOKEN``, are
# possessive (``*+``, ``++``, ``{m,n}+``): each keeps what it matched and saves
# no backtrack point.  Each sits where the next piece can never start with a
# character it consumes, so it matches as its plain form would, only faster.
# Each piece's regex is followed by spacing that depends on the next piece.
# A keyword or word must be a whole identifier (person_appearid is one), so no
# ``\w`` may follow it.  Before a keyword, word or int, which start with ``\w``,
# that takes at least one space or tab: ``[ \t]++``.  Before a sym or the line's
# end, no ``\w`` can follow, so the spacing stays ``[ \t]*+``.  Only before a
# num, which may start with ``-``, is the ``(?!\w)`` check kept.  After any
# other piece the spacing is ``[ \t]*+``.  The last piece of a table is taken
# to end the line: an alternative of ``_EVENTS`` does, and ``_TICK`` ends in an
# int.
_PATTERNS = {
    "sym": re.escape,
    "int": lambda _: rf"([0-9]{{1,{_MAX_DIGITS}}}+)",
    "num": lambda _: r"(-?[0-9]++(?:\.[0-9]++|))",
    "keyword": lambda word: word,
    "word": lambda words: f"({'|'.join(words)})",
}


def _pattern(pieces: tuple) -> str:
    """The regex of ``pieces``, each followed by the spacing the next piece allows."""
    after = [kind for kind, _, _ in pieces[1:]] + ["end"]
    return "".join(_PATTERNS[kind](arg) + _spacing(kind, then)
                   for (kind, arg, _), then in zip(pieces, after))


def _spacing(kind: str, then: str) -> str:
    """The spacing regex after a piece of ``kind`` when ``then`` (a kind, or "end") follows."""
    if kind not in ("keyword", "word"):
        return _SPACING.pattern
    if then in ("keyword", "word", "int"):
        return r"[ \t]++"
    return r"(?!\w)" + _SPACING.pattern if then == "num" else _SPACING.pattern


def _names(piece: tuple) -> tuple[str, ...]:
    """The words a keyword, or a word from a set, accepts."""
    return (piece[1],) if piece[0] == "keyword" else piece[1]


def _starts_identifier(word: str) -> bool:
    """Whether ``word`` starts as a scenario or tree identifier does: with a letter or ``_``."""
    return word[:1].isalpha() or word[:1] == "_"


_EVENT_LINE = re.compile(
    _SPACING.pattern + _pattern(_TICK) + "(?:" + "|".join(map(_pattern, _EVENTS)) + ")")
_EVENT = ("word", tuple(word for alternative in _EVENTS for word in _names(alternative[0])), "event")


def parse_scenario(text: str) -> ScenarioScript:
    """Parse and validate a scenario; events come back stably sorted by tick."""
    lines = _universal_newlines(text).split("\n")
    first = 0  # comments and blank lines may precede the header
    while first < len(lines) and _skipped(lines[first]):
        first += 1
    header = lines[first] if first < len(lines) else ""
    (name, duration), _ = _walk(header, min(first + 1, len(lines)), _HEADER)

    rows: list[tuple] = []  # Event's field order
    append = rows.append
    match = _EVENT_LINE.fullmatch
    for line_no, raw in enumerate(lines[first + 1:], start=first + 2):
        m = match(raw)
        if m is None:
            if _skipped(raw):
                continue
            _event_fault(raw, line_no)
        tick, moved, pid, x, y, left, button, hazard, network = m.groups()  # _EVENTS order
        at_tick = int(tick)
        if moved is not None:
            # the literal, not the match's new string, so that _frames's == meets it by identity
            kind = "person_move" if moved == "person_move" else "person_appear"
            append((at_tick, kind, int(pid), float(x), float(y), None))
        elif left is not None:
            append((at_tick, "person_leave", int(left), None, None, None))
        elif button is not None:
            append((at_tick, "button_press", None, None, None, button))
        elif hazard is not None:
            append((at_tick, f"hazard_{hazard}", None, None, None, None))
        else:
            append((at_tick, f"network_{network}", None, None, None, None))

    rows.sort(key=itemgetter(0))  # stable: file order within a tick
    return ScenarioScript(name, int(duration), tuple(rows))


def _universal_newlines(text: str) -> str:
    """``text`` with each CRLF and lone CR written as LF, as universal newlines read it."""
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _skipped(line: str) -> bool:
    """A blank or comment line: nothing, or a ``#``, after its leading whitespace."""
    body = line.lstrip()
    return not body or body[0] == "#"


def _event_fault(text: str, line_no: int) -> NoReturn:
    """Raise the ParseError of the first fault of a line ``_EVENT_LINE``
    rejects: in the tick, the event word, or the rest of that word's alternative."""
    (_, word), at = _walk(text, line_no, (*_TICK, _EVENT), end=False)
    alternative = next(alt for alt in _EVENTS if word in _names(alt[0]))
    _walk(text, line_no, alternative, at - len(word))
    raise AssertionError(f"line {line_no}, {text!r}: rejected by _EVENT_LINE, yet no piece is at fault")


def _walk(text: str, line_no: int, pieces: tuple, pos: int = 0,
          end: bool = True) -> tuple[list[str], int]:
    """Read ``pieces`` from ``text[pos:]``, then the line's end if ``end``: the
    captured texts and the position after them, or the first fault's ParseError."""
    groups = []
    for kind, arg, what in pieces:
        start = pos = _SPACING.match(text, pos).end()
        if kind == "sym":
            if not text.startswith(arg, pos):
                raise ParseError(line_no, pos + 1, f"expected {arg!r}", expected=arg)
            pos += len(arg)
        elif kind == "int":
            pos = _DIGITS.match(text, pos).end()
            if pos == start:
                raise ParseError(line_no, start + 1, f"expected {what}", expected="integer")
            if pos - start > _MAX_DIGITS:
                raise ParseError(line_no, start + 1, f"{what} too long",
                                 expected=f"at most {_MAX_DIGITS} digits")
        elif kind == "num":
            number = _NUMBER.match(text, pos)
            pos = number.end()
            if not number[1]:
                raise ParseError(line_no, start + 1, f"expected {what}", expected="number")
            if number[2] == ".":
                raise ParseError(line_no, pos + 1, "expected digits after decimal point",
                                 expected="digit")
        else:  # a keyword or a word: one identifier
            pos = _WORD.match(text, pos).end()
            word = text[start:pos]
            if not _starts_identifier(word):
                wanted = what if kind == "word" else f"keyword {arg!r}"
                raise ParseError(line_no, start + 1, f"expected {wanted}", expected="identifier")
            if kind == "keyword" and word != arg:
                raise ParseError(line_no, start + 1, f"expected {arg!r}, got {word!r}", expected=arg)
            if kind == "word" and arg is not None and word not in arg:
                raise ParseError(line_no, start + 1, f"unknown {what} {word!r}",
                                 expected="|".join(arg))
        if kind in _CAPTURED:
            groups.append(text[start:pos])
    if end:
        pos = _SPACING.match(text, pos).end()
        if pos < len(text):
            raise ParseError(line_no, pos + 1, "unexpected trailing input", expected="end of line")
    return groups, pos


# --- tree format -------------------------------------------------------------


# One tree token per match, after the spaces, tabs, carriage returns and
# newlines that separate tokens: a symbol, an ASCII number, a word, any other
# character (an error), or the end of the text, so that every match attempt
# succeeds where it starts.  ``\w`` is ``str.isalnum()`` or ``_``, as an
# identifier continues; a word must also start like one (``_starts_identifier``),
# so a leading ``²`` or ``½`` is an unexpected character.
_TREE_TOKEN = re.compile(r"[ \t\r\n]*+(?:([{}()*=])|([0-9]++)|(\w++)|([^ \t\r\n])|\Z)")


def _tokenize_tree(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens ending in an ``eof`` one; the kind of a
    symbol is the symbol itself, else ``ident`` or ``int``."""
    tokens = []
    append = tokens.append
    for m in _TREE_TOKEN.finditer(text):
        sym, number, word, other = m.groups()
        end = m.end()
        if sym:
            append((sym, sym, end - 1))
        elif word and _starts_identifier(word):
            append(("ident", word, end - len(word)))
        elif number:
            if len(number) > _MAX_DIGITS:
                raise _tree_error(text, end - len(number), "number too long",
                                  f"at most {_MAX_DIGITS} digits")
            append(("int", number, end - len(number)))
        elif word or other:
            at = end - len(word or other)
            raise _tree_error(text, at, f"unexpected character {text[at]!r}", _NODE_WORDS)
        else:
            break
    append(("eof", "", len(text)))
    return tokens


def _tree_error(text: str, offset: int, message: str, expected: str) -> ParseError:
    """A ParseError at the 1-based line and column of ``text[offset]``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(text.count("\n", 0, offset) + 1, offset - line_start + 1, message, expected)


def parse_tree(text: str) -> bt.Node:
    """Parse a tree description; names stay unresolved until validate_tree."""
    text = _universal_newlines(text)
    tokens = _tokenize_tree(text)
    at = 0

    def take(kind: str | None = None, what: str = "", expected: str = "") -> tuple[str, str, int]:
        """The next token, which must be of ``kind`` if one is given (a symbol
        names itself in the error by default); the cursor stays on ``eof``."""
        nonlocal at
        tok = tokens[at]
        if kind is not None and tok[0] != kind:
            raise _tree_error(text, tok[2], f"expected {what or repr(kind)}", expected or kind)
        if tok[0] != "eof":
            at += 1
        return tok

    def node(depth: int) -> bt.Node:
        _, word, offset = take("ident", "a node", _NODE_WORDS)
        if depth > bt._MAX_TREE_DEPTH:
            raise _tree_error(text, offset, "tree nested too deep",
                              f"at most {bt._MAX_TREE_DEPTH} levels")
        if word in ("sequence", "fallback"):
            memory = tokens[at][0] == "*"
            if memory:
                take()
            name = take("ident", "node name", "identifier")[1]
            cls = bt.Sequence if word == "sequence" else bt.Fallback
            return cls(name, children(depth), memory=memory)
        if word == "parallel":
            return bt.Parallel(take("ident", "node name", "identifier")[1], children(depth))
        if word == "guard":
            take("(")
            condition = take("ident", "guard condition", "identifier")[1]
            take(")")
            name = take("ident", "node name", "identifier")[1]
            take("{")
            child = node(depth + 1)
            take("}")
            return bt.Guard(condition, name, child)
        if word == "condition":
            return bt.Condition(take("ident", "condition name", "identifier")[1])
        if word == "action":
            name = take("ident", "behavior name", "identifier")[1]
            duration = None
            if tokens[at][1] == "dur":
                take()
                take("=")
                duration = int(take("int", "a duration", "integer")[1])
            return bt.Action(name, duration=duration)
        raise _tree_error(text, offset, f"unknown node kind {word!r}", _NODE_WORDS)

    def children(depth: int) -> list[bt.Node]:
        take("{")
        if tokens[at][0] == "}":
            raise _tree_error(text, tokens[at][2], "composite requires at least one child",
                              _NODE_WORDS)
        nodes = []
        while tokens[at][0] != "}":
            if tokens[at][0] == "eof":
                raise _tree_error(text, tokens[at][2], "unexpected end of input", "}")
            nodes.append(node(depth + 1))
        take()  # the closing brace
        return nodes

    root = node(1)
    if tokens[at][0] != "eof":
        raise _tree_error(text, tokens[at][2], "unexpected input after tree", "end of input")
    return root


def print_tree(root: bt.Node) -> str:
    """Canonical rendering: two-space indent, one node per line, reparseable.

    A node that ``parse_tree`` could not read back as the same node raises
    ConfigurationError naming it: one of a shape ``validate_tree`` refuses
    (``bt._check_shape``), a node name, condition name or behavior name that
    is not one identifier, or an action duration that is neither None nor a
    non-negative ``int`` of at most ``_MAX_DIGITS`` digits (a ``bool`` is not
    one).
    """
    lines: list[str] = []
    closing: list[str] = []  # one brace line per open composite or guard
    for node, depth in bt._preorder(root):
        bt._check_shape(node)
        while len(closing) >= depth:
            lines.append(closing.pop())
        pad = "  " * (depth - 1)
        if isinstance(node, bt.Condition):
            lines.append(f"{pad}condition {_tree_word(node, node.condition_name)}")
        elif isinstance(node, bt.Action):
            duration = node.duration_override
            suffix = ""
            if duration is not None:
                if type(duration) is not int or duration < 0:
                    raise ConfigurationError(f"action {node.name!r} cannot be printed: duration "
                                             f"{duration!r} is not a non-negative integer")
                if duration >= 10 ** _MAX_DIGITS:  # before str(), which may refuse it
                    raise ConfigurationError(f"action {node.name!r} cannot be printed: duration "
                                             f"has more than {_MAX_DIGITS} digits")
                suffix = f" dur={duration}"
            lines.append(f"{pad}action {_tree_word(node, node.behavior_name)}{suffix}")
        else:
            name = _tree_word(node, node.name)
            if isinstance(node, bt.Guard):
                lines.append(f"{pad}guard({_tree_word(node, node.condition_name)}) {name} {{")
            else:
                star = "*" if getattr(node, "memory", False) else ""
                lines.append(f"{pad}{node.kind}{star} {name} {{")
            closing.append(f"{pad}}}")
    lines.extend(reversed(closing))
    return "\n".join(lines) + "\n"


def _tree_word(node: bt.Node, word: str) -> str:
    """``word``, which ``print_tree`` writes for ``node``, if it is a ``str``
    that is one tree identifier."""
    if type(word) is str and _WORD.fullmatch(word) and _starts_identifier(word):
        return word
    raise ConfigurationError(f"{node.kind} {node.name!r} cannot be printed: "
                             f"{word!r} is not a tree identifier")
