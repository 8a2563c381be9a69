"""Seeded crowd scenarios for the benchmark, emitted as scenario text.

The program under test only ever sees the text, which goes through
``parse_scenario`` like any scenario file.  The same seed always gives the
same text.  No seed is picked to steer around known BT/FSM divergences: a
divergent verdict is part of the output, not a failure.
"""

from __future__ import annotations

import random

STILL_PERSONS = 200
STILL_TICKS = 40
CHURN_PERSONS = 50
CHURN_TICKS = 200
ANCHORS = 3


def _xy(x: float, y: float) -> str:
    return f"x={x:.3f} y={y:.3f}"


def _stimuli(rng: random.Random, ticks: int) -> list[tuple[int, str]]:
    """Consent presses, hazard windows and network blips on a fixed beat.

    The seed only nudges each by a tick, so every seed walks the controllers
    through the same sessions: three consents, then one refusal, and again.
    """
    out = []
    for k, t in enumerate(range(3, ticks, 16)):
        out.append((t + rng.randint(0, 1), "button " + ("no" if k % 4 == 3 else "yes")))
    for t in range(8, ticks - 3, 48):
        on = t + rng.randint(0, 1)
        out += [(on, "hazard on"), (on + 2, "hazard off")]
    for t in range(30, ticks - 2, 48):
        down = t + rng.randint(0, 1)
        out += [(down, "network down"), (down + 2, "network up")]
    return out


def crowd_still(seed: int) -> str:
    """A large crowd that mostly stands still, with rare arrivals and departures.

    Two to four visitors stand close to the robot for the whole scenario; the
    rest are scattered at least 3 m away.  Every 10 ticks one bystander leaves
    and a new one arrives, and now and then one shifts a little.
    """
    persons, ticks = STILL_PERSONS, STILL_TICKS
    rng = random.Random(f"crowd-still/{seed}")
    lines = [f"# seeded crowd-still, seed {seed}", f"scenario crowd_still ticks {ticks}"]
    roster: dict[int, tuple[float, float]] = {}
    engaged = rng.randint(2, 4)
    for pid in range(1, persons + 1):
        if pid <= engaged:
            x, y = 0.6 + 0.5 * pid, rng.uniform(-0.4, 0.4)
        else:
            x, y = rng.uniform(-12.0, 12.0), rng.uniform(3.0, 20.0)
        roster[pid] = (x, y)
        lines.append(f"@0 person_appear id={pid} {_xy(x, y)}")
    next_id = persons + 1
    events = _stimuli(rng, ticks)
    for t in range(1, ticks):
        bystanders = [pid for pid in roster if pid > engaged]
        if t % 10 == 5:
            gone = rng.choice(bystanders)
            del roster[gone]
            events.append((t, f"person_leave id={gone}"))
            x, y = rng.uniform(-12.0, 12.0), rng.uniform(3.0, 20.0)
            roster[next_id] = (x, y)
            events.append((t, f"person_appear id={next_id} {_xy(x, y)}"))
            next_id += 1
        elif rng.random() < 0.2:
            pid = rng.choice(bystanders)
            x, y = roster[pid]
            roster[pid] = (x + rng.uniform(-0.2, 0.2), y + rng.uniform(-0.2, 0.2))
            events.append((t, f"person_move id={pid} {_xy(*roster[pid])}"))
    lines += [f"@{t} {body}" for t, body in sorted(events, key=lambda e: e[0])]
    return "\n".join(lines) + "\n"


def crowd_churn(seed: int) -> str:
    """A crowd where everyone moves every tick and people keep coming and going.

    Three visitors shuffle about inside the robot's zone for the whole
    scenario; the others random-walk inside a 12 m x 8 m box in front of it.
    On about half the ticks one of those others leaves and a new one arrives.
    """
    persons, ticks = CHURN_PERSONS, CHURN_TICKS
    rng = random.Random(f"crowd-churn/{seed}")
    lines = [f"# seeded crowd-churn, seed {seed}", f"scenario crowd_churn ticks {ticks}"]

    def spot() -> tuple[float, float]:
        return rng.uniform(-6.0, 6.0), rng.uniform(0.3, 8.3)

    def step(pid: int, x: float, y: float) -> tuple[float, float]:
        lo_x, hi_x, lo_y, hi_y = (0.6, 1.8, -0.6, 0.6) if pid <= ANCHORS else (-6.0, 6.0, 0.3, 8.3)
        return (min(hi_x, max(lo_x, x + rng.uniform(-0.15, 0.15))),
                min(hi_y, max(lo_y, y + rng.uniform(-0.15, 0.15))))

    roster: dict[int, tuple[float, float]] = {}
    for pid in range(1, persons + 1):
        roster[pid] = step(pid, 1.2, 0.0) if pid <= ANCHORS else spot()
        lines.append(f"@0 person_appear id={pid} {_xy(*roster[pid])}")
    next_id = persons + 1
    events = _stimuli(rng, ticks)
    for t in range(1, ticks):
        arrived = None
        if rng.random() < 0.5:
            gone = rng.choice([pid for pid in roster if pid > ANCHORS])
            del roster[gone]
            events.append((t, f"person_leave id={gone}"))
            arrived, next_id = next_id, next_id + 1
            roster[arrived] = spot()
            events.append((t, f"person_appear id={arrived} {_xy(*roster[arrived])}"))
        for pid, (x, y) in roster.items():
            if pid == arrived:
                continue  # one event per person per tick
            roster[pid] = step(pid, x, y)
            events.append((t, f"person_move id={pid} {_xy(*roster[pid])}"))
    lines += [f"@{t} {body}" for t, body in sorted(events, key=lambda e: e[0])]
    return "\n".join(lines) + "\n"


GENERATORS = {"crowd-still": crowd_still, "crowd-churn": crowd_churn}
