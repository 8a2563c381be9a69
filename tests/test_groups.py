"""Proximity clustering and selection of the group engaged with the robot."""

from __future__ import annotations

import math
import random

from shutter_sim import (
    PersonObservation,
    cluster_groups,
    engaged_group_size,
    interaction_group_size,
    someone_in_zone,
)


def p(pid, x, y):
    return PersonObservation(pid, x, y)


def members(clusters):
    return [set(c.members) for c in clusters]


def test_threshold_is_inclusive():
    assert members(cluster_groups([p(1, 0.0, 0.0), p(2, 1.5, 0.0)])) == [{1, 2}]
    assert members(cluster_groups([p(1, 0.0, 0.0), p(2, 1.5001, 0.0)])) == [{1}, {2}]


def test_chained_neighbours_form_one_cluster():
    # 1-2 and 2-3 are in range while 1-3 is not: connectivity is transitive
    people = [p(1, 0.0, 0.0), p(2, 1.4, 0.0), p(3, 2.8, 0.0)]
    assert members(cluster_groups(people)) == [{1, 2, 3}]


def test_clusters_are_ordered_by_smallest_member_id():
    people = [p(9, 5.0, 5.0), p(4, 0.0, 0.0), p(7, -5.0, 5.0)]
    assert members(cluster_groups(people)) == [{4}, {7}, {9}]


def test_no_persons_means_no_groups():
    assert cluster_groups([]) == []
    assert interaction_group_size([], []) == 0


def test_distant_clusters_do_not_qualify():
    people = [p(1, 10.0, 0.0), p(2, 10.5, 0.0)]
    clusters = cluster_groups(people)
    assert interaction_group_size(clusters, people) == 0
    assert not any(c.includes_robot for c in clusters)


def test_nearest_cluster_wins():
    people = [p(1, 2.3, 0.0), p(2, 0.5, 0.0), p(3, 0.7, 0.7)]
    clusters = cluster_groups(people)  # {1} is 2.3m away, {2,3} is 0.5m away
    assert members(clusters) == [{1}, {2, 3}]
    assert interaction_group_size(clusters, people) == 2
    assert [c.includes_robot for c in clusters] == [False, True]


def test_distance_tie_breaks_toward_smaller_id():
    people = [p(1, 2.0, 0.0), p(2, -2.0, 0.0)]
    clusters = cluster_groups(people)
    assert interaction_group_size(clusters, people) == 1
    assert [c.includes_robot for c in clusters] == [True, False]


def test_winner_flag_moves_when_positions_change():
    first = [p(1, 0.5, 0.0), p(2, 5.0, 5.0)]
    clusters = cluster_groups(first)
    interaction_group_size(clusters, first)
    assert [c.includes_robot for c in clusters] == [True, False]

    second = [p(1, 5.0, 5.0), p(2, 0.5, 0.0)]
    clusters = cluster_groups(second)
    interaction_group_size(clusters, second)
    assert [c.includes_robot for c in clusters] == [False, True]


def test_custom_threshold_and_radius():
    people = [p(1, 0.0, 0.0), p(2, 2.5, 0.0)]
    assert members(cluster_groups(people, dist_threshold=3.0)) == [{1, 2}]
    clusters = cluster_groups(people, dist_threshold=3.0)
    assert interaction_group_size(clusters, people, zone_radius=1.0) == 2


# --- exactness of the sorted sweep against all pairs -----------------------------


def reference_components(persons, dist_threshold):
    """All-pairs connected components, each as a set of ids."""
    remaining = {q.person_id: q for q in persons}
    components = []
    while remaining:
        _, start = remaining.popitem()
        component, frontier = {start.person_id}, [start]
        while frontier:
            a = frontier.pop()
            linked = [
                b for b in remaining.values()
                if math.hypot(a.x - b.x, a.y - b.y) <= dist_threshold
            ]
            for b in linked:
                del remaining[b.person_id]
                component.add(b.person_id)
                frontier.append(b)
        components.append(component)
    return sorted(components, key=min)


def reference_engaged_size(persons, dist_threshold, zone_radius):
    distance = {q.person_id: math.hypot(q.x, q.y) for q in persons}
    keyed = [
        ((min(distance[m] for m in comp), min(comp)), len(comp))
        for comp in reference_components(persons, dist_threshold)
        if min(distance[m] for m in comp) <= zone_radius
    ]
    return min(keyed)[1] if keyed else 0


# values at which a rounding slip, a sign slip or a strict/inclusive mix-up shows
EDGE_VALUES = (
    0.0, -0.0, 1.5, -1.5, 3.0, -3.0, 2.5, -2.5, 1e-17, -1e-17, 5e-324, -5e-324,
    1.4999999999999998, 1.5000000000000002, 0.1 + 0.2, 4.5,
)


def edge_coordinate(rng):
    pick = rng.random()
    if pick < 0.35:
        return rng.uniform(-4.0, 4.0)
    if pick < 0.6:
        return rng.choice(EDGE_VALUES)
    if pick < 0.8:
        return 1.5 * rng.randint(-4, 4)
    # far out, where the spacing of floats is coarse but neighbours can still link
    magnitude = rng.choice((1e6, -1e6, 1e12, -1e12))
    return magnitude + rng.choice((0.0, 1.5, -1.5, 3.0, rng.uniform(-2.0, 2.0)))


def test_pinned_case_that_a_floor_grid_gets_wrong():
    # hypot(-1e-17 - 1.5, 0) rounds to exactly 1.5, so the two persons link,
    # though floor(x / 1.5) puts them two cells apart
    people = [p(1, -1e-17, 0.0), p(2, 1.5, 0.0)]
    assert engaged_group_size(people) == 2
    assert members(cluster_groups(people)) == [{1, 2}]


def test_sweep_matches_all_pairs_on_adversarial_rosters():
    rng = random.Random(20231)
    rosters = 2000
    for _ in range(rosters):
        n = rng.randint(0, 60)
        ids = rng.sample(range(1, 500), n)
        persons = [p(i, edge_coordinate(rng), edge_coordinate(rng)) for i in ids]
        dist_threshold = rng.choice((1.5, 1.5, 3.0, 0.0))
        zone_radius = rng.choice((2.5, 2.5, 1.5, 0.0, 2e12))
        expected = reference_components(persons, dist_threshold)
        clusters = cluster_groups(persons, dist_threshold)
        assert members(clusters) == expected
        engaged = engaged_group_size(persons, dist_threshold, zone_radius)
        assert engaged == reference_engaged_size(persons, dist_threshold, zone_radius)
        assert engaged == interaction_group_size(clusters, persons, zone_radius)
        assert someone_in_zone(persons, zone_radius) is (engaged >= 1)


def test_presence_counts_the_zone_edge_and_nothing_beyond():
    assert someone_in_zone([p(1, 1.5, 2.0)])  # hypot is exactly 2.5
    assert not someone_in_zone([p(1, 1.5, 2.0000000000000004)])
    assert not someone_in_zone([])
    assert someone_in_zone([p(1, -0.0, 0.0)], 0.0)
