"""Property test of ``parse_trace``'s one-match line grammar against the field walk.

``reference_parse_trace`` is a copy of the field walk ``parse_trace`` used on
every line before it matched each line against one regex, plus the one
intended change: a count of more than ``_MAX_DIGITS`` digits, or an int payload
holding more than that many decimal characters, fails with a message of our
own before int() can refuse it with the interpreter's advice.  Lines are the
golden corpus traces and edge lines, each also mutated six times by one to
three inserted, deleted or replaced characters.  On every line, and on whole
texts, the two must return equal records or raise a ValidationError with the
same message, which names the same line.  So must texts that repeat a valid
line's tail, the text after its tick, under a mutated tick or beside a mutated
tail, as ``parse_trace`` reads a tail it has read before without the full match.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from shutter_sim import ActionEmission, TickRecord, ValidationError, parse_trace, sim
from shutter_sim.dsl import _MAX_DIGITS
from shutter_sim.world import ACTION_PAYLOADS

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
# the trace alphabet, the tree alphabet's symbols, and non-ASCII letters and
# digits: ٣ is a decimal digit, ² a digit, ½ numeric, é a letter
MUTATION_ALPHABET = " \t=[]();_0123456789{}*-+.,?abceikmnoprstuyz٣²½é"
SYNTAX = set("=[]();0123456789")  # mutations land next to these half the time


# --- the field walk, as it was -----------------------------------------------


def reference_parse_trace(text: str) -> list[TickRecord]:
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            head, found, rest = line.partition(" emit=[")
            if not found:
                raise ValueError("expected emit=[ after status=")
            body, found, tail = rest.rpartition("] ")
            if not found:
                raise ValueError("expected ] before persons=")
            tick_part, ctl_part, status_part = _split(head, "tick= ctl= status= before emit=[")
            persons_part, hazard_part, net_part = _split(tail,
                                                         "persons= hazard= net= after the emissions")
            tick = _count(tick_part, "tick")
            emissions = []
            if body:
                for item in body.split(";"):
                    action, _, payload = item.partition("(")
                    if not payload.endswith(")"):
                        raise ValueError("unterminated emission")
                    emissions.append(ActionEmission(action, _read_payload(action, payload[:-1])))
            records.append(TickRecord(
                tick=tick,
                controller=_field(ctl_part, "ctl"),
                status=_field(status_part, "status"),
                emissions=tuple(emissions),
                persons=_count(persons_part, "persons"),
                hazard=_flag(hazard_part, "hazard"),
                network=_flag(net_part, "net"),
            ))
        except ValueError as exc:
            raise ValidationError(f"bad trace line {line_no}: {exc}") from None
    return records


def _read_payload(action, text):
    declared = ACTION_PAYLOADS.get(action)
    if declared is str:
        return text
    if declared is int:
        if sum(ch.isdecimal() for ch in text) > _MAX_DIGITS:  # the added digit bound
            raise ValueError(f"{action} payload has more than {_MAX_DIGITS} digits")
        value = int(text)
        if str(value) != text:
            raise ValueError(f"{action} payload {text!r} is not an integer")
        return value
    return text or None


def _split(text, fields):
    parts = text.split(" ")
    if len(parts) != 3:
        raise ValueError(f"expected {fields}")
    return parts


def _field(part, key):
    prefix = key + "="
    if not part.startswith(prefix):
        raise ValueError(f"expected {prefix}")
    return part[len(prefix):]


def _count(part, key):
    text = _field(part, key)
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and len(text) > 1):
        raise ValueError(f"{key} {text!r} is not a decimal count")
    if len(text) > _MAX_DIGITS:  # the added digit bound
        raise ValueError(f"{key} has more than {_MAX_DIGITS} digits")
    return int(text)


def _flag(part, key):
    text = _field(part, key)
    if text not in ("0", "1"):
        raise ValueError(f"{key} {text!r} is not 0 or 1")
    return text == "1"


# --- inputs ------------------------------------------------------------------

EDGE_LINES = [
    "tick=0 ctl=bt status=Success emit=[] persons=0 hazard=0 net=1",
    "tick=7 ctl= status= emit=[] persons=12 hazard=1 net=0",
    "tick=1 ctl=b\tt status=Run\tning emit=[idle()] persons=0 hazard=0 net=1",
    "tick=2 ctl=bt status=emit=[x emit=[say(a emit=[b)] persons=0 hazard=0 net=1",
    "tick=3 ctl=bt status=Running emit=[say(a] b)] persons=0 hazard=0 net=1",
    "tick=3 ctl=bt status=Running emit=[say(a)(b)] persons=0 hazard=0 net=1",
    "tick=4 ctl=bt status=Running emit=[take_photo(1)(2)] persons=0 hazard=0 net=1",
    "tick=4 ctl=bt status=Running emit=[take_photo(10);show_photo(0)] persons=0 hazard=0 net=1",
    "tick=4 ctl=bt status=Running emit=[take_photo_x(01);Take_photo(x)] persons=0 hazard=0 net=1",
    "tick=5 ctl=bt status=Running emit=[();foo bar(x);idle(y)] persons=0 hazard=0 net=1",
    "tick=5 ctl=bt status=Running emit=[say();say(;)] persons=0 hazard=0 net=1",
    "tick=6 ctl=bt status=Running emit=[say(x)]  persons=0 hazard=0 net=1",
    "tick=6 ctl=bt status=Running emit=[say(x)] ] persons=0 hazard=0 net=1",
    "tick=6 ctl=bt status=Running emit=[halt_motion_hold()] persons=0 hazard=0 net=1 ",
    # signs on int payloads: str(int) writes a minus before a nonzero value only
    "tick=7 ctl=bt status=Running emit=[take_photo(-5);show_photo(-12)] persons=0 hazard=0 net=1",
    "tick=7 ctl=bt status=Running emit=[show_photo(-0)] persons=0 hazard=0 net=1",
    "tick=7 ctl=bt status=Running emit=[take_photo(-05)] persons=0 hazard=0 net=1",
    "tick=7 ctl=bt status=Running emit=[take_photo(+5)] persons=0 hazard=0 net=1",
    "tick=7 ctl=bt status=Running emit=[take_photo(--5)] persons=0 hazard=0 net=1",
    "tick=7 ctl=bt status=Running emit=[take_photo(-)] persons=0 hazard=0 net=1",
    "tick=7 ctl=bt status=Running emit=[take_photo(-" + "9" * 4300 + ")] persons=0 hazard=0 net=1",
]


def corpus_lines() -> list[str]:
    lines = set()
    for path in GOLDEN_DIR.glob("*.trace"):
        lines.update(path.read_text(encoding="utf-8").splitlines())
    assert len(lines) > 300
    return sorted(lines) + EDGE_LINES


def mutate(rng: random.Random, line: str) -> str:
    near = [i for i, ch in enumerate(line) if ch in SYNTAX]
    i = rng.choice(near) + rng.randint(0, 1) if near and rng.random() < 0.5 else rng.randint(0, len(line))
    op = rng.choice(("insert", "delete", "replace"))
    if op == "insert" or i >= len(line):
        return line[:i] + rng.choice(MUTATION_ALPHABET) + line[i:]
    if op == "delete":
        return line[:i] + line[i + 1:]
    return line[:i] + rng.choice(MUTATION_ALPHABET) + line[i + 1:]


def seeded_lines(seed: int = 40213) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for line in corpus_lines():
        lines.append(line)
        for _ in range(6):
            mutated = line
            for _ in range(rng.randint(1, 3)):
                mutated = mutate(rng, mutated)
            lines.append(mutated)
    return lines


# A valid line's tick field rewritten so that the field walk refuses it.
TICK_MUTATIONS = (
    lambda tick, tail: f"tick=0{tick} {tail}",  # a leading zero
    lambda tick, tail: f"tick={'1' * (_MAX_DIGITS + 1)} {tail}",
    lambda tick, tail: f"tick=٣ {tail}",  # ٣, a decimal digit outside ASCII
    lambda tick, tail: f"tick={tick}{tail}",  # no space before ctl=
    lambda tick, tail: f"tick= {tail}",
)


def repeated_tail_texts(seed: int = 59) -> list[tuple[str, str, str]]:
    """Three-line texts: a valid line, a copy of it at the next tick, then a
    copy with a mutated tick or, at the line's own tick, a mutated tail."""
    rng = random.Random(seed)
    texts = []
    for line in corpus_lines():
        if isinstance(outcome(reference_parse_trace, line), str):
            continue
        tick, tail = line[len("tick="):].split(" ", 1)
        copy = f"tick={int(tick) + 1} {tail}"
        texts += [(line, copy, mutation(tick, tail)) for mutation in TICK_MUTATIONS]
        texts += [(line, copy, f"tick={tick} {mutate(rng, tail)}") for _ in range(3)]
    return texts


def outcome(parse, text):
    try:
        return parse(text)
    except ValidationError as err:
        return str(err)


# --- properties --------------------------------------------------------------


def test_the_reference_reads_the_documented_shapes():
    assert reference_parse_trace("tick=3 ctl=bt status=Running emit=[say(a] b)] "
                                 "persons=0 hazard=0 net=1")[0].emissions == (
        ActionEmission("say", "a] b"),)
    assert outcome(reference_parse_trace, EDGE_LINES[6]) == (
        "bad trace line 1: invalid literal for int() with base 10: '1)(2'")
    assert outcome(reference_parse_trace, "tick=03" + EDGE_LINES[0][6:]) == (
        "bad trace line 1: tick '03' is not a decimal count")


def test_seeded_lines_parse_as_the_field_walk_reads_them():
    outcomes = {"accepted": 0, "rejected": 0}
    messages = set()
    for line in seeded_lines():
        expected = outcome(reference_parse_trace, line)
        assert outcome(parse_trace, line) == expected, line
        if isinstance(expected, str):
            outcomes["rejected"] += 1
            messages.add(re.sub(r"'.*'", "", expected.split(": ", 1)[1]))
        else:
            outcomes["accepted"] += 1
    # the draw must reach both outcomes and many different first faults
    assert outcomes["accepted"] > 600
    assert outcomes["rejected"] > 1500
    assert len(messages) > 15


def test_whole_texts_fail_on_the_same_line():
    rng = random.Random(7)
    lines = seeded_lines()
    for _ in range(300):
        chunk = rng.sample(lines, 6)
        chunk.insert(rng.randint(0, 6), rng.choice(("", "  ", "\t")))
        text = "\n".join(chunk) + rng.choice(("", "\n"))
        assert outcome(parse_trace, text) == outcome(reference_parse_trace, text), text


def test_the_field_walk_finds_no_fault_in_a_line_parse_trace_reads():
    # parse_trace takes a line's fields only from _TRACE_LINE and walks a line
    # only to name its fault, so a line the walk accepts as well is an
    # internal error
    accepted = [line for line in seeded_lines() if not isinstance(outcome(parse_trace, line), str)]
    assert len(accepted) > 600
    for line in accepted:
        with pytest.raises(AssertionError, match="rejected by _TRACE_LINE") as excinfo:
            sim._trace_fault(line)
        assert repr(line) in str(excinfo.value)


def test_repeated_tails_read_as_the_field_walk_reads_them():
    # parse_trace reads a line whose text after its tick it has read before
    # without the full match: a tick the full match would refuse, or a tail it
    # has not read, must still get the field walk's verdict
    outcomes = {"accepted": 0, "rejected": 0}
    shared = 0
    for lines in repeated_tail_texts():
        text = "\n".join(lines)
        expected = outcome(reference_parse_trace, text)
        assert outcome(parse_trace, text) == expected, text
        outcomes["rejected" if isinstance(expected, str) else "accepted"] += 1
        first, second = parse_trace("\n".join(lines[:2]))
        if first.emissions:  # a second read of one tail gives the same tuple
            assert second.emissions is first.emissions
            shared += 1
    assert outcomes["rejected"] > 2000
    assert outcomes["accepted"] > 100
    assert shared > 1000
