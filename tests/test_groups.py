"""Selection of the group engaged with the robot, the zone presence check, and
the rule that proves a roster's zone groups those of the roster before it."""

from __future__ import annotations

import random

from shutter_sim import PersonObservation, engaged_group_size, someone_in_zone
from shutter_sim.groups import same_zone_groups, zone_groups

from conftest import reference_engaged_size, reference_zone_members


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


def packed_coordinate(rng):
    # |x|, |y| <= 1.7 puts a person within hypot(1.7, 1.7) < 2.5 of the robot
    if rng.random() < 0.3:
        return rng.choice((0.0, -0.0, 1.5, -1.5, 1e-17, -1e-17, 1.7, -1.7))
    return rng.uniform(-1.7, 1.7)


def test_sweep_matches_all_pairs_on_adversarial_rosters():
    rng = random.Random(20231)
    rosters = 2000
    for _ in range(rosters):
        n = rng.randint(0, 60)
        ids = rng.sample(range(1, 500), n)
        # one roster in five stands wholly in the zone, where every group qualifies
        coordinate = packed_coordinate if rng.random() < 0.2 else edge_coordinate
        persons = [p(i, coordinate(rng), coordinate(rng)) for i in ids]
        engaged = engaged_group_size(persons)
        assert engaged == reference_engaged_size(persons)
        assert someone_in_zone(persons) is (engaged >= 1)


def test_presence_counts_the_zone_edge_and_nothing_beyond():
    assert someone_in_zone([p(1, 1.5, 2.0)])  # hypot is exactly 2.5
    assert not someone_in_zone([p(1, 1.5, 2.0000000000000004)])
    assert someone_in_zone([p(1, -1.5, -2.0)])  # hypot is exactly 2.5 here too
    assert not someone_in_zone([p(1, -1.5, -2.0000000000000004)])
    assert not someone_in_zone([])


# --- proving a roster's zone groups unchanged --------------------------------------

# offsets whose hypot is the link distance, and points whose hypot is the zone radius
LINK_OFFSETS = ((1.5, 0.0), (-1.5, 0.0), (0.0, 1.5), (0.0, -1.5), (0.9, 1.2), (-1.2, -0.9))
ZONE_EDGE = ((2.5, 0.0), (-2.5, 0.0), (1.5, 2.0), (-2.0, -1.5), (0.0, 2.5))
NUDGES = (0.0, 0.0, 0.0, 1e-17, -1e-17, 4.5e-16, -4.5e-16)


def lattice_point(rng):
    return 1.5 * rng.randint(-4, 4), 1.5 * rng.randint(-4, 4)


def new_spot(rng, present):
    """Where a moving or arriving person stands: far off, a link distance from
    someone ``present``, on the zone's edge or on the lattice, often a
    rounding step off."""
    pick = rng.random()
    if pick < 0.3:
        return rng.uniform(-10.0, 10.0), rng.choice((-1, 1)) * rng.uniform(4.0, 10.0)
    if pick < 0.55 and present:
        q, (dx, dy) = rng.choice(present), rng.choice(LINK_OFFSETS)
        x, y = q.x + dx, q.y + dy
    elif pick < 0.75:
        x, y = rng.choice(ZONE_EDGE)
    elif pick < 0.9:
        x, y = lattice_point(rng)
    else:
        return edge_coordinate(rng), edge_coordinate(rng)
    return x + rng.choice(NUDGES), y + rng.choice(NUDGES)


def first_roster(rng):
    """Up to 14 persons on the lattice, at edge coordinates or anywhere near
    the zone; or on the lattice in pairs a quarter turn apart, so that two
    groups often stand equally near and the smaller id decides."""
    ids = rng.sample(range(1, 41), rng.randint(0, 14))
    pick = rng.random()
    if pick < 0.3:
        points = [lattice_point(rng) for _ in ids[::2]]
        points = [q for x, y in points for q in ((x, y), (-y, x))]
    elif pick < 0.55:
        points = [lattice_point(rng) for _ in ids]
    elif pick < 0.8:
        points = [(edge_coordinate(rng), edge_coordinate(rng)) for _ in ids]
    else:
        points = [(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)) for _ in ids]
    return {pid: p(pid, x, y) for pid, (x, y) in zip(ids, points)}


def changed_roster(rng, before):
    """``before`` after a few moves, arrivals and departures; a move may keep
    the person's place in a new observation, and a newcomer may take a
    smaller id than anyone present."""
    present = list(before.values())
    after = dict(before)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        pick = rng.random()
        if after and pick < 0.25:
            del after[rng.choice(list(after))]
        elif after and pick < 0.6:
            pid = rng.choice(list(after))
            after[pid] = p(pid, *new_spot(rng, present))
        elif after and pick < 0.7:
            q = after[rng.choice(list(after))]
            after[q.person_id] = p(q.person_id, q.x, q.y)
        else:
            pid = rng.choice([i for i in range(1, 41) if i not in after])
            after[pid] = p(pid, *new_spot(rng, present))
    return after


def test_a_roster_proved_to_keep_its_zone_groups_keeps_its_size():
    rng = random.Random(20232)
    pairs, reused = 6000, 0
    for _ in range(pairs):
        before = first_roster(rng)
        zones = zone_groups(before.values())
        size, members = zones
        assert size == reference_engaged_size(list(before.values()))
        assert sorted(q.person_id for q in members) == reference_zone_members(list(before.values()))
        assert all(before[q.person_id] is q for q in members)
        after = changed_roster(rng, before)
        if same_zone_groups(before, zones, after):
            reused += 1
            assert reference_engaged_size(list(after.values())) == size
            assert reference_zone_members(list(after.values())) == sorted(q.person_id for q in members)
            assert sorted(map(id, zone_groups(after.values())[1])) == sorted(map(id, members))
    assert reused >= pairs // 4
