"""Proximity-based grouping of tracked persons around the robot.

Two persons link when ``math.hypot(a.x - b.x, a.y - b.y) <= dist_threshold``;
groups are the connected components of that relation.  Neighbours are found by
a sweep over the persons sorted by ``x``: from each person the scan walks
outward in that order and stops each way at the first person whose ``x`` gap
exceeds the threshold.  The sweep is exact, not an approximation: float
subtraction is monotone, so every later person in the scan has a gap at least
as large, and ``hypot(u, v) >= |u|``, so no pruned pair could have linked.
(A grid of ``dist_threshold``-wide cells is not exact: it bins by
``floor(x / d)``, and ``(-1e-17, 0)`` and ``(1.5, 0)`` fall two cells apart
although their ``hypot`` rounds to exactly 1.5.)  Coordinates are finite, as
``dsl.ScenarioScript`` checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable

from .world import PersonObservation

DEFAULT_DIST_THRESHOLD = 1.5
DEFAULT_ZONE_RADIUS = 2.5


def engaged_group_size(
    persons: Iterable[PersonObservation],
    dist_threshold: float = DEFAULT_DIST_THRESHOLD,
    zone_radius: float = DEFAULT_ZONE_RADIUS,
) -> int:
    """Size of the group engaged with the robot, or 0 when none qualifies.

    A group is a connected component under the link relation above, and it
    qualifies when a member stands within ``zone_radius`` of the origin.
    Among qualifying groups the one with the nearest member wins; ties break
    toward the smaller minimum member id.  Only the groups reaching into the
    zone are grown.
    """
    people = sorted(persons, key=attrgetter("x"))
    xs = [p.x for p in people]
    ys = [p.y for p in people]
    n = len(xs)
    reached = [False] * n
    best_key: tuple[float, int] | None = None
    best_size = 0
    # hypot(x, y) >= |x|, so only persons with |x| <= zone_radius can stand in the zone
    for seed in range(bisect_left(xs, -zone_radius), bisect_right(xs, zone_radius)):
        if reached[seed] or math.hypot(xs[seed], ys[seed]) > zone_radius:
            continue
        reached[seed] = True
        component = [seed]
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            xi, yi = xs[i], ys[i]
            j = i + 1
            while j < n and xs[j] - xi <= dist_threshold:
                if not reached[j] and math.hypot(xi - xs[j], yi - ys[j]) <= dist_threshold:
                    reached[j] = True
                    component.append(j)
                    frontier.append(j)
                j += 1
            j = i - 1
            while j >= 0 and xi - xs[j] <= dist_threshold:
                if not reached[j] and math.hypot(xi - xs[j], yi - ys[j]) <= dist_threshold:
                    reached[j] = True
                    component.append(j)
                    frontier.append(j)
                j -= 1
        nearest = min(math.hypot(xs[i], ys[i]) for i in component)
        key = (nearest, min(people[i].person_id for i in component))
        if best_key is None or key < best_key:
            best_key, best_size = key, len(component)
    return best_size


def someone_in_zone(
    persons: Iterable[PersonObservation],
    zone_radius: float = DEFAULT_ZONE_RADIUS,
) -> bool:
    """Whether anyone stands within ``zone_radius`` of the origin.

    Equal to ``engaged_group_size(persons, d, zone_radius) >= 1`` for every
    ``d``: a person in the zone makes their own group qualify, and a group
    qualifies only through such a person.  No grouping is needed, so the cost
    does not depend on how the crowd stands.  A plain loop, not ``any`` over a
    generator, so a check costs one Python-level call, not one per person.
    """
    for p in persons:
        if math.hypot(p.x, p.y) <= zone_radius:
            return True
    return False
