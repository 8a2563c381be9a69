"""Output checks that do not use the package's own perception code.

The roster is replayed from the scenario text with a reader of its own, the
crowd is clustered by brute force, and every greeting in a trace must name
the size of the group engaged at that tick.  Each trace line's person count
must match the replayed roster too.
"""

from __future__ import annotations

import math
import re

DIST_THRESHOLD = 1.5
ZONE_RADIUS = 2.5

_WORDS = {"two": 2, "three": 3, "four": 4, "five": 5, "six": 6, "seven": 7,
          "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12}
_GREETING = re.compile(r"say\(Would you like me to take (your photo|a photo of the (\w+) of you)\?\)")
_LINE = re.compile(r"tick=(\d+) .* persons=(\d+) ")


def scenario_rosters(text: str) -> list[dict[int, tuple[float, float]]]:
    """The roster after each tick's events, read straight from scenario text."""
    duration = None
    by_tick: dict[int, list[list[str]]] = {}
    for raw in text.split("\n"):
        words = raw.split()
        if not words or words[0].startswith("#"):
            continue
        if words[0] == "scenario":
            duration = int(words[3])
            continue
        by_tick.setdefault(int(words[0][1:]), []).append(words[1:])
    if duration is None:
        raise ValueError("scenario text has no header")
    roster: dict[int, tuple[float, float]] = {}
    rosters = []
    for t in range(duration):
        for kind, *args in by_tick.get(t, ()):
            if kind not in ("person_appear", "person_move", "person_leave"):
                continue
            fields = dict(a.split("=", 1) for a in args)
            pid = int(fields["id"])
            if kind == "person_leave":
                del roster[pid]
            else:
                roster[pid] = (float(fields["x"]), float(fields["y"]))
        rosters.append(dict(roster))
    return rosters


def engaged_group_size(roster: dict[int, tuple[float, float]]) -> int:
    """Brute-force connected components, then the nearest qualifying group."""
    ids = sorted(roster)
    unseen = set(ids)
    best = None
    for start in ids:
        if start not in unseen:
            continue
        unseen.discard(start)
        component, frontier = [start], [start]
        while frontier:
            a = frontier.pop()
            ax, ay = roster[a]
            near = [b for b in unseen if math.hypot(ax - roster[b][0], ay - roster[b][1]) <= DIST_THRESHOLD]
            unseen.difference_update(near)
            component += near
            frontier += near
        nearest = min(math.hypot(*roster[m]) for m in component)
        if nearest <= ZONE_RADIUS:
            key = (nearest, min(component))
            if best is None or key < best[0]:
                best = (key, len(component))
    return 0 if best is None else best[1]


def check_trace(trace: str, rosters: list[dict[int, tuple[float, float]]]) -> list[str]:
    """Problems found in one controller's trace; empty when it passes."""
    problems = []
    lines = trace.splitlines()
    if len(lines) != len(rosters):
        problems.append(f"{len(lines)} trace lines for {len(rosters)} ticks")
    for line, roster in zip(lines, rosters):
        head = _LINE.match(line)
        if head is None:
            problems.append(f"unreadable trace line {line!r}")
            continue
        tick, persons = int(head[1]), int(head[2])
        if persons != len(roster):
            problems.append(f"tick {tick}: persons={persons}, roster has {len(roster)}")
        for greeting in _GREETING.finditer(line):
            word = greeting[2]
            said = 1 if word is None else _WORDS.get(word, int(word) if word.isdigit() else -1)
            expected = engaged_group_size(roster)
            if said != expected:
                problems.append(f"tick {tick}: greeted {said}, engaged group is {expected}")
    return problems


def check_round_trip(trace: str, parse_trace, serialize_trace) -> list[str]:
    """``serialize_trace(parse_trace(text))`` must give back the same bytes."""
    try:
        again = serialize_trace(parse_trace(trace))
    except Exception as exc:  # the package's own error types are not imported here
        return [f"parse_trace rejected the trace: {exc}"]
    if again == trace:
        return []
    return ["trace does not round-trip through parse_trace/serialize_trace"]
