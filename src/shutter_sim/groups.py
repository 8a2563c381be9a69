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
``world.apply_events`` enforces.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

from .world import PersonObservation

DEFAULT_DIST_THRESHOLD = 1.5
DEFAULT_ZONE_RADIUS = 2.5


@dataclass
class GroupCluster:
    """A connected component of persons under the pairwise distance threshold."""

    members: frozenset[int]
    includes_robot: bool = False


def _sorted_by_x(
    persons: Iterable[PersonObservation],
) -> tuple[list[PersonObservation], list[float], list[float]]:
    people = sorted(persons, key=attrgetter("x"))
    return people, [p.x for p in people], [p.y for p in people]


def _components(
    xs: list[float], ys: list[float], dist_threshold: float, seeds: Iterable[int]
) -> Iterator[list[int]]:
    """The component of each seed not already reached, as indices into ``xs``/``ys``.

    ``xs`` must be sorted; ``seeds`` are indices into it.
    """
    n = len(xs)
    reached = [False] * n
    for seed in seeds:
        if reached[seed]:
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
        yield component


def cluster_groups(
    persons: Iterable[PersonObservation],
    dist_threshold: float = DEFAULT_DIST_THRESHOLD,
) -> list[GroupCluster]:
    """Partition persons into clusters; two persons connect when within the threshold.

    Returns clusters ordered by their smallest member id.
    """
    people, xs, ys = _sorted_by_x(persons)
    groups = [
        frozenset(people[i].person_id for i in component)
        for component in _components(xs, ys, dist_threshold, range(len(people)))
    ]
    return [GroupCluster(members=members) for members in sorted(groups, key=min)]


def engaged_group_size(
    persons: Iterable[PersonObservation],
    dist_threshold: float = DEFAULT_DIST_THRESHOLD,
    zone_radius: float = DEFAULT_ZONE_RADIUS,
) -> int:
    """Size of the group engaged with the robot, or 0 when none qualifies.

    Equal to ``interaction_group_size(cluster_groups(persons, dist_threshold),
    persons, zone_radius)``, but only the groups reaching into the zone are
    grown, and nothing is mutated.
    """
    people, xs, ys = _sorted_by_x(persons)
    # hypot(x, y) >= |x|, so only persons with |x| <= zone_radius can stand in the zone
    window = range(bisect_left(xs, -zone_radius), bisect_right(xs, zone_radius))
    seeds = [i for i in window if math.hypot(xs[i], ys[i]) <= zone_radius]
    best_key: tuple[float, int] | None = None
    best_size = 0
    for component in _components(xs, ys, dist_threshold, seeds):
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
    does not depend on how the crowd stands.
    """
    return any(math.hypot(p.x, p.y) <= zone_radius for p in persons)


def interaction_group_size(
    clusters: list[GroupCluster],
    persons: Iterable[PersonObservation],
    zone_radius: float = DEFAULT_ZONE_RADIUS,
) -> int:
    """Size of the cluster engaged with the robot, or 0 when none qualifies.

    A cluster qualifies when any member stands within the zone radius of the
    origin.  Among qualifying clusters the one with the nearest member wins;
    ties break toward the smaller minimum member id.  The winning cluster gets
    ``includes_robot`` set; every other cluster gets it cleared.
    """
    distance = {p.person_id: math.hypot(p.x, p.y) for p in persons}
    best: GroupCluster | None = None
    best_key: tuple[float, int] | None = None
    for cluster in clusters:
        nearest = min((distance[m] for m in cluster.members), default=math.inf)
        if nearest > zone_radius:
            continue
        key = (nearest, min(cluster.members))
        if best_key is None or key < best_key:
            best, best_key = cluster, key
    for cluster in clusters:
        cluster.includes_robot = cluster is best
    return len(best.members) if best is not None else 0
