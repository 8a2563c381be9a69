"""Selection of the group engaged with the robot, and the zone presence check."""

from __future__ import annotations

import random

from shutter_sim import PersonObservation, engaged_group_size, someone_in_zone

from conftest import reference_engaged_size


def p(pid, x, y):
    return PersonObservation(pid, x, y)


def test_threshold_is_inclusive():
    assert engaged_group_size([p(1, 0.0, 0.0), p(2, 1.5, 0.0)]) == 2
    assert engaged_group_size([p(1, 0.0, 0.0), p(2, 1.5001, 0.0)]) == 1


def test_chained_neighbours_form_one_cluster():
    # 1-2 and 2-3 are in range while 1-3 is not: connectivity is transitive
    people = [p(1, 0.0, 0.0), p(2, 1.4, 0.0), p(3, 2.8, 0.0)]
    assert engaged_group_size(people) == 3


def test_no_persons_means_no_groups():
    assert engaged_group_size([]) == 0


def test_distant_clusters_do_not_qualify():
    people = [p(1, 10.0, 0.0), p(2, 10.5, 0.0)]
    assert engaged_group_size(people) == 0


def test_nearest_cluster_wins():
    people = [p(1, 2.3, 0.0), p(2, 0.5, 0.0), p(3, 0.7, 0.7)]
    # {1} is 2.3m away, {2,3} is 0.5m away
    assert engaged_group_size(people) == 2


def test_distance_tie_breaks_toward_smaller_id():
    assert engaged_group_size([p(1, 2.0, 0.0), p(2, -2.0, 0.0)]) == 1
    # both groups have a member 2m away; the sizes show which one won
    assert engaged_group_size([p(1, 2.0, 0.0), p(2, -2.0, 0.0), p(3, -3.0, 0.0)]) == 1
    assert engaged_group_size([p(3, 2.0, 0.0), p(1, -2.0, 0.0), p(2, -3.0, 0.0)]) == 2


def test_custom_threshold_and_radius():
    people = [p(1, 0.0, 0.0), p(2, 2.5, 0.0)]
    assert engaged_group_size(people) == 1
    assert engaged_group_size(people, dist_threshold=3.0, zone_radius=1.0) == 2


# --- exactness of the sorted sweep against all pairs -----------------------------


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


def test_sweep_matches_all_pairs_on_adversarial_rosters():
    rng = random.Random(20231)
    rosters = 2000
    for _ in range(rosters):
        n = rng.randint(0, 60)
        ids = rng.sample(range(1, 500), n)
        persons = [p(i, edge_coordinate(rng), edge_coordinate(rng)) for i in ids]
        dist_threshold = rng.choice((1.5, 1.5, 3.0, 0.0))
        zone_radius = rng.choice((2.5, 2.5, 1.5, 0.0, 2e12))
        engaged = engaged_group_size(persons, dist_threshold, zone_radius)
        assert engaged == reference_engaged_size(persons, dist_threshold, zone_radius)
        assert someone_in_zone(persons, zone_radius) is (engaged >= 1)


def test_presence_counts_the_zone_edge_and_nothing_beyond():
    assert someone_in_zone([p(1, 1.5, 2.0)])  # hypot is exactly 2.5
    assert not someone_in_zone([p(1, 1.5, 2.0000000000000004)])
    assert not someone_in_zone([])
    assert someone_in_zone([p(1, -0.0, 0.0)], 0.0)
