"""Proximity-based grouping of tracked persons around the robot.

Two persons link when ``math.hypot(a.x - b.x, a.y - b.y) <= DIST_THRESHOLD``;
groups are the connected components of that relation, and a group reaches the
zone when a member stands within ``ZONE_RADIUS`` of the origin.  The two are
constants, so the sweep, the reuse proof in ``same_zone_groups`` and every
record stored on a ``world.Roster`` read the same values.

Neighbours are found by a sweep over the persons sorted by ``x``: from each
person the scan walks outward in that order and stops each way at the first
person whose ``x`` gap exceeds the threshold.  The sweep is exact, not an
approximation: float subtraction is monotone, so every later person in the
scan has a gap at least as large, and ``hypot(u, v) >= |u|``, so no pruned
pair could have linked.  (A grid of threshold-wide cells is not exact: it bins
by ``floor(x / d)``, and ``(-1e-17, 0)`` and ``(1.5, 0)`` fall two cells apart
although their ``hypot`` rounds to exactly 1.5.)  Coordinates are finite, as
``dsl.ScenarioScript`` checks.

``zone_groups`` is that sweep.  Its result is one record: the engaged group's
size and the members of every group reaching the zone; ``same_zone_groups``
uses the record to prove that another roster has the same zone groups without
a sweep.  The sorted persons and the reach mask stay inside the sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable, Mapping

from .world import PersonObservation

DIST_THRESHOLD = 1.5
ZONE_RADIUS = 2.5


def engaged_group_size(persons: Iterable[PersonObservation]) -> int:
    """Size of the group engaged with the robot, or 0 when none qualifies.

    A group is a connected component under the link relation above, and it
    qualifies when it reaches the zone.  Among qualifying groups the one with
    the nearest member wins; ties break toward the smaller minimum member id.
    """
    return zone_groups(persons)[0]


def zone_groups(
    persons: Iterable[PersonObservation],
) -> tuple[int, list[PersonObservation]]:
    """The zone-groups record of ``persons``: ``engaged_group_size`` and the
    members of every group reaching the zone, not only of the winning one,
    in the order the sweep grows them.  Only those groups are grown."""
    # locals, not globals, in the loops below
    dist_threshold, zone_radius = DIST_THRESHOLD, ZONE_RADIUS
    people = sorted(persons, key=attrgetter("x"))
    xs = [p.x for p in people]
    ys = [p.y for p in people]
    n = len(xs)
    reached = [False] * n
    members: list[PersonObservation] = []
    best_key: tuple[float, int] | None = None
    best_size = 0
    # hypot(x, y) >= |x|, so only persons with |x| <= zone_radius can stand in the zone
    for seed in range(bisect_left(xs, -zone_radius), bisect_right(xs, zone_radius)):
        if reached[seed] or math.hypot(xs[seed], ys[seed]) > zone_radius:
            continue
        reached[seed] = True
        component = [people[seed]]
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            xi, yi = xs[i], ys[i]
            j = i + 1
            while j < n and xs[j] - xi <= dist_threshold:
                if not reached[j] and math.hypot(xi - xs[j], yi - ys[j]) <= dist_threshold:
                    reached[j] = True
                    component.append(people[j])
                    frontier.append(j)
                j += 1
            j = i - 1
            while j >= 0 and xi - xs[j] <= dist_threshold:
                if not reached[j] and math.hypot(xi - xs[j], yi - ys[j]) <= dist_threshold:
                    reached[j] = True
                    component.append(people[j])
                    frontier.append(j)
                j -= 1
        members += component
        nearest = min(math.hypot(p.x, p.y) for p in component)
        key = (nearest, min(p.person_id for p in component))
        if best_key is None or key < best_key:
            best_key, best_size = key, len(component)
    return best_size, members


def same_zone_groups(
    before: Mapping[int, PersonObservation],
    zones: tuple[int, list[PersonObservation]],
    after: Mapping[int, PersonObservation],
) -> bool:
    """Whether ``after`` provably has the zone groups of ``before``, so that
    ``zone_groups`` would give both the same size and the same members;
    False proves nothing.

    Both rosters key each observation by its ``person_id``.  ``zones`` is a
    record ``(size, members)`` of ``before``'s zone groups, as
    ``zone_groups`` returns.  The proof needs two things, each checked by the
    sweep's own comparisons:

    - every member is in ``after`` as the identical object;
    - every person of ``after`` that is not the identical object in
      ``before`` stands outside the zone and beyond linking distance of
      every member.

    Then the zone persons of ``after`` are all members, no new or moved
    person links to a member, and a person unchanged since ``before`` links
    to a member only if it did there, where it was none; persons who left
    were no members.  Identity is what makes the test cheap:
    ``dsl.ScenarioScript`` shares an observation between rosters until its
    person moves.
    """
    _, members = zones
    get = after.get
    for m in members:
        if get(m.person_id) is not m:
            return False
    get = before.get
    for pid, p in after.items():
        if get(pid) is p:
            continue
        x, y = p.x, p.y
        if math.hypot(x, y) <= ZONE_RADIUS:
            return False
        for m in members:
            if math.hypot(m.x - x, m.y - y) <= DIST_THRESHOLD:
                return False
    return True


def someone_in_zone(persons: Iterable[PersonObservation]) -> bool:
    """Whether anyone stands within ``ZONE_RADIUS`` of the origin.

    Equal to ``engaged_group_size(persons) >= 1``: a person in the zone makes
    their own group qualify, and a group qualifies only through such a person.
    No grouping is needed, so the cost does not depend on how the crowd
    stands.  A plain loop, not ``any`` over a generator, so a check costs one
    Python-level call, not one per person.
    """
    zone_radius = ZONE_RADIUS
    for p in persons:
        if math.hypot(p.x, p.y) <= zone_radius:
            return True
    return False
