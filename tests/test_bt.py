"""Tree engine semantics: composites, memory, switch resets, guards, leaves."""

from __future__ import annotations

import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import weakref
from collections import Counter

import pytest

from shutter_sim import (
    Action,
    Behavior,
    Condition,
    ConfigurationError,
    Fallback,
    Guard,
    InteractionContext,
    NodeStatus,
    Parallel,
    PersonObservation,
    Sequence,
    build_photographer_bt,
    default_catalogue,
    node_count,
    parse_scenario,
    print_tree,
    validate_tree,
)
from shutter_sim import bt, sim

from conftest import PKG_ROOT, SCENARIO_DIR, LeafScript, structural_signature

S, R, F = NodeStatus.SUCCESS, NodeStatus.RUNNING, NodeStatus.FAILURE


def make(script: LeafScript, root):
    return validate_tree(root, script.catalogue)


def tick(script: LeafScript, root, statuses=None, flags=None):
    """One root tick with the scripted outcomes; returns (status, leaves ticked)."""
    if statuses is not None:
        script.statuses[: len(statuses)] = statuses
    if flags is not None:
        script.flags[: len(flags)] = flags
    script.log.clear()
    status = bt.tick(root, InteractionContext())
    return status, list(script.log)


def leaves(n):
    return [Action(f"stub_{i}") for i in range(n)]


def test_sequence_succeeds_when_all_children_succeed():
    script = LeafScript()
    root = make(script, Sequence("s", leaves(3)))
    assert tick(script, root, [S, S, S]) == (S, [0, 1, 2])


def test_sequence_stops_at_the_first_failure():
    script = LeafScript()
    root = make(script, Sequence("s", leaves(3)))
    assert tick(script, root, [S, F, S]) == (F, [0, 1])


def test_sequence_stops_at_the_first_running_child():
    script = LeafScript()
    root = make(script, Sequence("s", leaves(3)))
    assert tick(script, root, [S, R, S]) == (R, [0, 1])


def test_fallback_mirrors_sequence():
    script = LeafScript()
    root = make(script, Fallback("f", leaves(3)))
    assert tick(script, root, [F, F, F]) == (F, [0, 1, 2])
    assert tick(script, root, [F, S, F]) == (S, [0, 1])
    assert tick(script, root, [F, R, F]) == (R, [0, 1])


def test_memory_sequence_resumes_at_the_running_child():
    script = LeafScript()
    root = make(script, Sequence("s", leaves(3), memory=True))
    assert tick(script, root, [S, R, S]) == (R, [0, 1])
    # earlier children are not re-ticked while child 1 is still running
    assert tick(script, root) == (R, [1])
    assert tick(script, root, [S, S, S]) == (S, [1, 2])
    # completion rewinds the memory: the next tick starts from the front
    assert tick(script, root, [S, R, S]) == (R, [0, 1])


def test_plain_sequence_reevaluates_from_the_front():
    script = LeafScript()
    root = make(script, Sequence("s", leaves(3)))
    assert tick(script, root, [S, R, S]) == (R, [0, 1])
    assert tick(script, root) == (R, [0, 1])


def test_switch_resets_the_previously_running_child():
    script = LeafScript()
    root = make(script, Fallback("f", leaves(2)))
    c0, c1 = root.children
    assert tick(script, root, [F, R]) == (R, [0, 1])
    assert root.snapshot()[c1.node_id] == 1
    # child 0 takes over as the running child; child 1 must be reset unticked
    assert tick(script, root, [R, R]) == (R, [0])
    assert root.snapshot()[c1.node_id] == 0


def test_finishing_resets_the_previously_running_child():
    script = LeafScript()
    root = make(script, Fallback("f", leaves(2)))
    c1 = root.children[1]
    assert tick(script, root, [F, R]) == (R, [0, 1])
    assert root.snapshot()[c1.node_id] == 1
    assert tick(script, root, [S, R]) == (S, [0])
    assert root.snapshot()[c1.node_id] == 0


def test_parallel_ticks_every_child_even_after_a_failure():
    script = LeafScript()
    root = make(script, Parallel("p", leaves(3)))
    assert tick(script, root, [F, S, R]) == (F, [0, 1, 2])


def test_parallel_status_rules():
    script = LeafScript()
    root = make(script, Parallel("p", leaves(2)))
    assert tick(script, root, [S, S])[0] is S
    assert tick(script, root, [S, R])[0] is R
    assert tick(script, root, [R, F])[0] is F


def test_parallel_failure_resets_held_subtree_state():
    script = LeafScript()
    inner = Sequence("inner", [Action("stub_1"), Action("stub_2")], memory=True)
    root = make(script, Parallel("p", [Action("stub_0"), Guard("flag_0", "g", inner)]))
    stub_2 = inner.children[1]
    ids = [inner.node_id, stub_2.node_id]
    assert tick(script, root, [R, S, R]) == (R, [0, 1, 2])
    assert [root.snapshot()[i] for i in ids] == [1, 1]
    # child 0 fails: the whole parallel finalizes and held progress is cleared
    assert tick(script, root, [F, S, R]) == (F, [0, 2])
    assert [root.snapshot()[i] for i in ids] == [None, 0]


def test_guard_blocks_without_ticking_its_child():
    script = LeafScript()
    root = make(script, Guard("flag_0", "g", Action("stub_0")))
    ctx = InteractionContext()
    script.flags[0] = False
    assert bt.tick(root, ctx) is R
    assert script.log == []
    assert [e.action for e in ctx.emissions_this_tick] == ["halt_motion_hold"]
    script.flags[0] = True
    script.statuses[0] = S
    assert bt.tick(root, ctx) is S
    assert script.log == [0]


def test_blocked_guard_preserves_progress_for_an_in_place_resume():
    script = LeafScript()
    guarded = Guard("flag_0", "g", Action("stub_0"))
    root = make(script, Sequence("s", [guarded, Action("stub_1")], memory=True))
    assert tick(script, root, [R, S], flags=[True]) == (R, [0])
    assert root.snapshot()[guarded.children[0].node_id] == 1
    # blocked: no leaf runs, held progress stays put
    assert tick(script, root, flags=[False]) == (R, [])
    assert root.snapshot()[guarded.children[0].node_id] == 1
    # unblocked: the action continues from its second step, then the chain ends
    status, log = tick(script, root, [S, S], flags=[True])
    assert (status, log) == (S, [0, 1])
    assert script.calls[-2] == (0, 1)


def test_action_runs_for_its_behavior_duration():
    script = LeafScript()
    steps: list[int] = []
    script.catalogue.register_behavior(
        Behavior("wave", 3, lambda ctx, step: steps.append(step))
    )
    root = make(script, Sequence("s", [Action("wave")]))
    ctx = InteractionContext()
    assert [bt.tick(root, ctx) for _ in range(3)] == [R, R, S]
    # completion rewinds the step counter for the next activation
    assert bt.tick(root, ctx) is R
    assert steps == [0, 1, 2, 0]


def test_action_duration_override():
    script = LeafScript()
    steps: list[int] = []
    script.catalogue.register_behavior(
        Behavior("wave", 3, lambda ctx, step: steps.append(step))
    )
    root = make(script, Sequence("s", [Action("wave", duration=1)]))
    assert bt.tick(root, InteractionContext()) is S


def test_condition_maps_predicate_to_status():
    script = LeafScript()
    root = make(script, Sequence("s", [Condition("flag_0")]))
    assert tick(script, root, flags=[True])[0] is S
    assert tick(script, root, flags=[False])[0] is F


@pytest.mark.parametrize("status", list(NodeStatus), ids=lambda status: status.name)
def test_step_returns_the_status_text_as_a_plain_str(status):
    script = LeafScript()
    root = make(script, Sequence("s", [Action("stub_0")]))
    script.statuses[0] = status
    text = root.step(InteractionContext())
    root.reset()
    assert type(text) is str and text == bt.tick(root, InteractionContext()).value == status.value


def test_step_ticks_through_the_module_level_tick(monkeypatch):
    # a wrapper bound over bt.tick sees every step, as the benchmark's spans need
    seen = []
    real = bt.tick
    monkeypatch.setattr(bt, "tick", lambda root, ctx: seen.append(root) or real(root, ctx))
    root = build_photographer_bt()
    assert root.step(InteractionContext()) == "Success"
    assert seen == [root]


def test_tick_requires_a_validated_tree():
    with pytest.raises(ConfigurationError, match="validate_tree"):
        bt.tick(Sequence("s", [Action("stub_0")]), InteractionContext())


def test_tick_refuses_a_subtree_of_a_validated_root():
    script = LeafScript()
    root = make(script, Sequence("s", [Fallback("f", [Action("stub_0")])]))
    for node in list(root.iter_nodes())[1:]:
        with pytest.raises(ConfigurationError, match="validate_tree"):
            bt.tick(node, InteractionContext())
    assert script.log == []


def test_validation_collects_every_unresolved_name():
    script = LeafScript()
    root = Sequence("s", [Condition("ghost_cond"), Action("ghost_act"), Action("stub_0")])
    with pytest.raises(ConfigurationError, match="ghost_act.*ghost_cond"):
        validate_tree(root, script.catalogue)


def test_validation_rejects_childless_composites():
    script = LeafScript()
    with pytest.raises(ConfigurationError, match="at least one child"):
        validate_tree(Sequence("s", [Parallel("p", [])]), script.catalogue)


@pytest.mark.parametrize("kind", [Sequence, Fallback])
@pytest.mark.parametrize("memory", ["no", None, 1, 0.0])
def test_validation_rejects_a_chain_memory_that_is_not_a_bool(kind, memory):
    # a truthy "no" would otherwise tick, and print, as a memory chain
    script = LeafScript()
    chain = kind("c", [Action("stub_0")], memory=memory)
    with pytest.raises(ConfigurationError) as excinfo:
        validate_tree(Sequence("s", [chain]), script.catalogue)
    assert str(excinfo.value) == f"{chain.kind} 'c' memory {memory!r} is not a bool"


def test_validation_rejects_multi_child_guards():
    script = LeafScript()
    guard = Guard("flag_0", "g", Action("stub_0"))
    guard.children.append(Action("stub_1"))
    with pytest.raises(ConfigurationError, match="exactly one child"):
        validate_tree(guard, script.catalogue)


def test_validation_rejects_nonpositive_durations():
    script = LeafScript()
    with pytest.raises(ConfigurationError, match="duration must be positive"):
        validate_tree(Sequence("s", [Action("stub_0", duration=0)]), script.catalogue)
    for duration in (True, False, 2.5):
        with pytest.raises(ConfigurationError, match="'stub_0' duration must be an integer"):
            validate_tree(Sequence("s", [Action("stub_0", duration=duration)]), script.catalogue)


def test_a_node_reprs_as_its_class_and_name():
    assert [repr(node) for node in (Sequence("s", leaves(1)), Guard("always", "g", Action("stub_0")),
                                    Condition("flag_0"), Action("stub_0"))] == [
        "<Sequence 's'>", "<Guard 'g'>", "<Condition 'flag_0'>", "<Action 'stub_0'>"]


def test_validation_assigns_preorder_node_ids():
    script = LeafScript()
    root = make(script, Sequence("s", [Action("stub_0"), Fallback("f", leaves(2))]))
    assert [n.node_id for n in root.iter_nodes()] == list(range(node_count(root)))


def _nest(levels, wrap, leaf="stub_0"):
    """A chain of ``levels`` nodes: ``levels - 1`` wrappers, numbered from the
    leaf up, around one action."""
    node = Action(leaf)
    for i in range(levels - 1):
        node = wrap(i, node)
    return node


@pytest.mark.parametrize("wrap,kind,name", [
    (lambda i, child: Guard("always", f"g{i}", child), "guard", "g"),
    (lambda i, child: Sequence(f"s{i}", [child]), "sequence", "s"),
], ids=["guards", "sequences"])
def test_validation_bounds_the_depth_of_api_built_trees(wrap, kind, name):
    script = LeafScript()
    root = make(script, _nest(100, wrap))
    assert [n.node_id for n in root.iter_nodes()] == list(range(100))
    assert bt.tick(root, InteractionContext()) is S
    # the first node past the bound is the one at level 101: the leaf of a
    # 101-level chain, the wrapper numbered 1200 - 102 in a 1200-level one
    for levels, first in ((101, "action 'stub_0'"), (1200, f"{kind} '{name}1098'")):
        with pytest.raises(ConfigurationError) as err:
            validate_tree(_nest(levels, wrap), script.catalogue)
        assert str(err.value) == f"{first} is nested deeper than 100 levels"
    # in preorder, the first branch's too-deep node is named, not the second's
    both = Sequence("top", [_nest(100, wrap, "stub_1"), _nest(100, wrap, "stub_2")])
    with pytest.raises(ConfigurationError, match="^action 'stub_1' is nested"):
        validate_tree(both, script.catalogue)


def test_node_walks_reach_every_level_of_an_unvalidated_deep_tree():
    # iter_nodes and node_count share validate_tree's stack walk, so a chain
    # far past the recursion limit is walked, in preorder, not refused
    root = _nest(1200, lambda i, child: Guard("always", f"g{i}", child))
    names = [n.name for n in root.iter_nodes()]
    assert names == [f"g{i}" for i in reversed(range(1199))] + ["stub_0"]
    assert node_count(root) == 1200


def test_every_walk_returns_on_a_deep_api_built_tree():
    # the signature and the printer keep their own stacks too, and reset
    # walks nothing: it refuses the unvalidated tree with the tick gate's
    # message, and so does sim.run
    root = _nest(1200, lambda i, child: Guard("always", f"g{i}", child))
    with pytest.raises(ConfigurationError, match="validate_tree"):
        root.reset()
    assert node_count(root) == 1200
    signature = structural_signature(root)
    assert signature[0] == (1, "guard", "g1198", False, "always", None)
    assert signature[-1] == (1200, "action", "stub_0", False, None, None)
    lines = print_tree(root).splitlines()
    assert len(lines) == 1200 + 1199
    assert lines[0] == "guard(always) g1198 {"
    assert lines[1199] == "  " * 1199 + "action stub_0"
    assert lines[1200] == "  " * 1198 + "}"
    assert lines[-1] == "}"
    with pytest.raises(ConfigurationError, match="validate_tree"):
        sim.run(root, parse_scenario("scenario deep ticks 3\n"))


def _self_cycle():
    # its own only child, so a walk that missed the cycle would loop in place
    # rather than grow its stack
    chain = Sequence("s", [])
    chain.children.append(chain)
    return chain


def _shared_subtree():
    shared = Fallback("f", leaves(2))
    return Sequence("s", [shared, Action("stub_2"), shared])


@pytest.mark.parametrize("make_tree,first", [
    (lambda: Sequence("s", [Action("stub_0")] * 2), "action 'stub_0'"),
    (_shared_subtree, "fallback 'f'"),
    (_self_cycle, "sequence 's'"),
], ids=["shared-leaf", "shared-subtree", "self-cycle"])
def test_validation_rejects_a_node_met_twice(make_tree, first):
    script = LeafScript()
    message = f"{first} appears more than once in the tree"
    with pytest.raises(ConfigurationError) as err:
        validate_tree(make_tree(), script.catalogue)
    assert str(err.value) == message
    # every other whole-tree walk refuses it too instead of running forever
    for walk in (node_count, structural_signature, print_tree):
        with pytest.raises(ConfigurationError, match=message):
            walk(make_tree())
    # sim.run's reset stops at the tick gate, walking nothing
    with pytest.raises(ConfigurationError, match="validate_tree"):
        sim.run(make_tree(), parse_scenario("scenario shared ticks 3\n"))


_RESET_TWICE_MET = """
from shutter_sim import Action, ConfigurationError, Fallback, Sequence
shared = Fallback("f", [Action("a")])
cycle = Sequence("s", [])
cycle.children.append(cycle)
for root in (Sequence("s", [Action("a")] * 2), Sequence("s", [shared, Action("b"), shared]), cycle):
    try:
        root.reset()
    except ConfigurationError as exc:
        print(exc)
"""


def test_reset_refuses_a_node_met_twice():
    # a fresh interpreter with a timeout, so a reset that walks a cycle
    # forever fails the test instead of hanging the suite; reset walks
    # nothing, so each unvalidated tree gets the tick gate's message
    env = {**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _RESET_TWICE_MET], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["tree must pass validate_tree before it is ticked"] * 3


def test_structural_signature_tracks_shape_not_runtime_state():
    script = LeafScript()
    a = make(script, Sequence("s", leaves(2), memory=True))
    b = Sequence("s", leaves(2), memory=True)
    assert structural_signature(a) == structural_signature(b)
    assert structural_signature(a) != structural_signature(Sequence("s", leaves(2)))
    assert structural_signature(Action("x")) != structural_signature(Action("x", duration=2))
    tick(script, a, [S, R])
    assert structural_signature(a) == structural_signature(b)


def test_reset_is_recursive_and_idempotent():
    script = LeafScript()
    root = make(script, Sequence("s", leaves(2), memory=True))
    tick(script, root, [S, R])
    root.reset()
    root.reset()
    assert root.snapshot()[root.node_id] is None
    assert all(root.snapshot()[c.node_id] == 0 for c in root.children)
    assert tick(script, root, [S, S]) == (S, [0, 1])


def test_runtime_state_reads_through_an_immutable_snapshot():
    script = LeafScript()
    root = make(script, Sequence("s", leaves(2), memory=True))
    tick(script, root, [S, R])
    snapshot = root.snapshot()
    assert type(snapshot) is tuple
    assert (snapshot[root.node_id], snapshot[root.children[1].node_id]) == (1, 1)
    with pytest.raises(TypeError):
        snapshot[root.node_id] = 0  # type: ignore[index]
    # the snapshot is a copy: ticking on leaves it as it was
    tick(script, root, [S, S])
    assert (snapshot[root.node_id], snapshot[root.children[1].node_id]) == (1, 1)
    assert root.snapshot() == (None, 0, 0)
    # a node that was never validated, or is below the root, holds no state,
    # and a root validated again as a subtree gives its state up
    outer = make(script, Sequence("outer", [root]))
    for node in (Sequence("s", leaves(1)), Action("stub_0"), root.children[0], root):
        with pytest.raises(ConfigurationError, match="validate_tree"):
            node.snapshot()
    assert outer.snapshot() == (None, None, 0, 0)


def test_validating_again_picks_up_a_changed_tree_with_fresh_state():
    script = LeafScript()
    root = make(script, Sequence("s", [Action("stub_0"), Action("stub_1")], memory=True))
    assert tick(script, root, [S, R]) == (R, [0, 1])
    new = Action("stub_2")
    root.children[1] = new
    # until it is validated again, the tree ticks the shape validation saw:
    # the memory chain resumes the replaced child at its second step
    assert tick(script, root, [S, R, S]) == (R, [1])
    assert script.calls[-1] == (1, 1)
    validate_tree(root, script.catalogue)
    assert (root.snapshot()[root.node_id], root.snapshot()[new.node_id]) == (None, 0)
    assert [n.node_id for n in root.iter_nodes()] == [0, 1, 2]
    # the next tick runs the new child from step 0
    assert tick(script, root, [S, R, R]) == (R, [0, 2])
    assert script.calls[-1] == (2, 0)
    assert (root.snapshot()[root.node_id], root.snapshot()[new.node_id]) == (1, 1)


def test_validation_refuses_a_node_of_no_ticked_kind():
    script = LeafScript()
    with pytest.raises(ConfigurationError, match="^node 'bare' is not a node kind"):
        validate_tree(Sequence("s", [bt.Node("bare")]), script.catalogue)


def test_a_run_tree_is_freed_by_reference_counting():
    # the compiled closures hold each other, the resolved callables and the
    # state list, never a node, so dropping a run tree frees it at once
    scenario = parse_scenario((SCENARIO_DIR / "solo.scn").read_text(encoding="utf-8"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        root = build_photographer_bt()
        assert sim.run(root, scenario)
        freed = weakref.ref(root)
        del root
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("make_leaf", [lambda: Condition("no_person"), lambda: Action("idle")],
                         ids=["condition", "action"])
def test_validation_refuses_a_leaf_with_children(make_leaf):
    leaf = make_leaf()
    leaf.children.append(Action("idle"))
    root = Sequence("s", [leaf, Action("greet")])
    # the tick would never run the child, and printed text would read it back
    # as the leaf's sibling, so the tree is refused naming the leaf
    for refuse in (print_tree, lambda tree: validate_tree(tree, default_catalogue())):
        with pytest.raises(ConfigurationError,
                           match=f"^{leaf.kind} '{leaf.name}' is a leaf and cannot have children$"):
            refuse(root)


def _greet_steps(root):
    """The steps the tree's ``greet`` action has taken in its activation."""
    greet = next(node for node in root.iter_nodes() if getattr(node, "behavior_name", None) == "greet")
    return root.snapshot()[greet.node_id]


def test_a_copied_tree_is_unvalidated_and_ticks_apart_from_the_original():
    def present():
        return InteractionContext(persons={1: PersonObservation(1, 1.0, 0.5)})

    original = build_photographer_bt()
    bt.tick(original, present())
    assert _greet_steps(original) == 1
    copied = copy.deepcopy(original)
    # a fresh description: no ids, no runtime, so nothing to read or tick
    assert {node.node_id for node in copied.iter_nodes()} == {None}
    for use in (copied.snapshot, lambda: bt.tick(copied, present())):
        with pytest.raises(ConfigurationError, match="validate_tree"):
            use()
    validate_tree(copied, default_catalogue())
    assert _greet_steps(copied) == 0
    bt.tick(copied, present())
    assert (_greet_steps(original), _greet_steps(copied)) == (1, 1)
    bt.tick(copied, present())
    assert (_greet_steps(original), _greet_steps(copied)) == (1, 0)
    assert [n.node_id for n in original.iter_nodes()] == [n.node_id for n in copied.iter_nodes()]


def test_a_built_tree_pickles_as_its_description():
    scenario = parse_scenario((SCENARIO_DIR / "solo.scn").read_text(encoding="utf-8"))
    original = build_photographer_bt()
    expected = sim.run(original, scenario)
    restored = pickle.loads(pickle.dumps(original))
    assert structural_signature(restored) == structural_signature(original)
    with pytest.raises(ConfigurationError, match="validate_tree"):
        sim.run(restored, scenario)
    assert sim.run(validate_tree(restored, default_catalogue()), scenario) == expected


# --- memory and the switch rule over many ticks, against a reference model ------

N_FLAGS = 3
# "leaf" twice: below the root, half the nodes are leaves
SHAPE_KINDS = ("leaf", "leaf", "guard", "parallel", "sequence", "fallback")


def random_shape(rng: random.Random, depth: int, leaf_ids, max_depth: int = 2) -> tuple:
    """A tree shape at most ``max_depth`` levels below the root, as nested
    tuples: ``("leaf", i)``, ``("guard", flag, child)``, ``("parallel",
    children)`` and ``(chain, memory, children)``; leaf ``i`` is behavior
    ``stub_i``."""
    if depth == max_depth:
        kind = "leaf"
    else:
        kind = rng.choice(SHAPE_KINDS[2:] if depth == 0 else SHAPE_KINDS)
    if kind == "leaf":
        return ("leaf", next(leaf_ids))
    if kind == "guard":
        return ("guard", rng.randrange(N_FLAGS),
                random_shape(rng, depth + 1, leaf_ids, max_depth))
    children = [random_shape(rng, depth + 1, leaf_ids, max_depth)
                for _ in range(rng.randint(1, 3))]
    if kind == "parallel":
        return ("parallel", children)
    return (kind, rng.random() < 0.5, children)


def build(shape: tuple, path: tuple, actions: list) -> bt.Node:
    """The tree for ``shape``; appends each leaf's (path, Action) to ``actions``."""
    kind = shape[0]
    if kind == "leaf":
        node = Action(f"stub_{shape[1]}")
        actions.append((path, node))
        return node
    if kind == "guard":
        return Guard(f"flag_{shape[1]}", "g", build(shape[2], path + (0,), actions))
    children = [build(child, path + (i,), actions) for i, child in enumerate(shape[-1])]
    if kind == "parallel":
        return Parallel("p", children)
    return (Sequence if kind == "sequence" else Fallback)("c", children, memory=shape[1])


class ReferenceTree:
    """Resume and reset restated over per-node records, keyed by path.

    ``last`` holds each node's status on its last tick since its subtree was
    reset, and ``elapsed`` each leaf's Running ticks in a row.  A memory chain
    resumes at the child whose record says Running.  After a composite ticks,
    each child that was Running before the tick, or is Running now, has its
    subtree reset unless both the child and the composite are Running now.
    """

    def __init__(self):
        self.last: dict[tuple, NodeStatus] = {}
        self.elapsed: dict[tuple, int] = {}
        self.seen: Counter[str] = Counter()

    def reset(self, path: tuple) -> None:
        for table in (self.last, self.elapsed):
            for key in [key for key in table if key[:len(path)] == path]:
                if table is self.elapsed and table[key]:
                    self.seen["progress cleared"] += 1
                del table[key]

    def tick(self, shape: tuple, path: tuple, statuses, flags, log: list) -> NodeStatus:
        kind = shape[0]
        if kind == "leaf":
            log.append(shape[1])
            status = statuses[shape[1]]
            self.elapsed[path] = self.elapsed.get(path, 0) + 1 if status is R else 0
        elif kind == "guard":
            if flags[shape[1]]:
                status = self.tick(shape[2], path + (0,), statuses, flags, log)
            else:
                status = R
                self.seen["guard held"] += 1
        else:
            children = shape[-1]
            was_running = {i for i in range(len(children)) if self.last.get(path + (i,)) is R}
            if kind == "parallel":
                got = [self.tick(c, path + (i,), statuses, flags, log) for i, c in enumerate(children)]
                status = F if F in got else S if all(g is S for g in got) else R
                running = {i for i, g in enumerate(got) if g is R}
            else:
                stop_on, status = (F, S) if kind == "sequence" else (S, F)
                start = min(was_running) if shape[1] and was_running else 0
                self.seen["resumed past the first child"] += start > 0
                running = set()
                for i in range(start, len(children)):
                    got = self.tick(children[i], path + (i,), statuses, flags, log)
                    if got is R or got is stop_on:
                        status = got
                        running = {i} if got is R else set()
                        break
            for i in sorted(was_running | running):
                if status is not R or i not in running:
                    self.reset(path + (i,))
        self.last[path] = status
        return status


def test_memory_and_the_switch_rule_match_a_reference_over_many_ticks():
    rng = random.Random(2018)
    seen: Counter[str] = Counter()
    for _ in range(300):
        leaf_ids = itertools.count()
        shape = random_shape(rng, 0, leaf_ids)
        n_leaves = next(leaf_ids)
        script = LeafScript(n_leaves=n_leaves, n_flags=N_FLAGS)
        actions: list = []
        root = make(script, build(shape, (), actions))
        reference = ReferenceTree()
        for t in range(12):
            statuses = [rng.choice((S, R, R, F)) for _ in range(n_leaves)]
            flags = [rng.random() < 0.75 for _ in range(N_FLAGS)]
            log: list[int] = []
            expected = reference.tick(shape, (), statuses, flags, log)
            assert tick(script, root, statuses, flags) == (expected, log), (shape, t)
            elapsed = [reference.elapsed.get(path, 0) for path, _ in actions]
            snapshot = root.snapshot()
            assert [snapshot[node.node_id] for _, node in actions] == elapsed, (shape, t)
        seen += reference.seen
    assert min(seen[k] for k in ("guard held", "resumed past the first child",
                                 "progress cleared")) >= 100, seen


def chains_with_paths(node: bt.Node, path: tuple = ()):
    """Each chain under ``node`` with its path, numbered as ``build`` numbers them."""
    if isinstance(node, (Sequence, Fallback)):
        yield path, node
    for i, child in enumerate(node.children):
        yield from chains_with_paths(child, path + (i,))


def test_the_switch_rule_matches_a_reference_on_deeper_trees():
    # up to 4 levels below the root, a chain is cut off below other chains,
    # guards and parallels; each chain's state slot must hold the one child
    # the reference records as Running
    rng = random.Random(2024)
    seen: Counter[str] = Counter()
    for _ in range(150):
        leaf_ids = itertools.count()
        shape = random_shape(rng, 0, leaf_ids, max_depth=rng.randint(3, 4))
        n_leaves = next(leaf_ids)
        script = LeafScript(n_leaves=n_leaves, n_flags=N_FLAGS)
        actions: list = []
        root = make(script, build(shape, (), actions))
        chains = list(chains_with_paths(root))
        reference = ReferenceTree()
        for t in range(16):
            statuses = [rng.choice((S, R, R, F)) for _ in range(n_leaves)]
            flags = [rng.random() < 0.75 for _ in range(N_FLAGS)]
            before = root.snapshot()
            log: list[int] = []
            expected = reference.tick(shape, (), statuses, flags, log)
            assert tick(script, root, statuses, flags) == (expected, log), (shape, t)
            elapsed = [reference.elapsed.get(path, 0) for path, _ in actions]
            snapshot = root.snapshot()
            assert [snapshot[node.node_id] for _, node in actions] == elapsed, (shape, t)
            for path, chain in chains:
                running = [i for i in range(len(chain.children))
                           if reference.last.get(path + (i,)) is R]
                assert len(running) <= 1, (shape, t, path)
                now, prev = snapshot[chain.node_id], before[chain.node_id]
                assert now == (running[0] if running else None), (shape, t, path)
                seen["deep chain switched"] += len(path) >= 2 and prev is not None and now != prev
        seen += reference.seen
    assert min(seen[k] for k in ("guard held", "resumed past the first child",
                                 "progress cleared", "deep chain switched")) >= 100, seen


def reference_print_tree(root: bt.Node) -> str:
    """The recursive printer that ``print_tree`` restates with a stack."""
    lines: list[str] = []

    def walk(node: bt.Node, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, Condition):
            lines.append(f"{pad}condition {node.condition_name}")
        elif isinstance(node, Action):
            suffix = f" dur={node.duration_override}" if node.duration_override is not None else ""
            lines.append(f"{pad}action {node.behavior_name}{suffix}")
        elif isinstance(node, Guard):
            lines.append(f"{pad}guard({node.condition_name}) {node.name} {{")
            walk(node.children[0], depth + 1)
            lines.append(f"{pad}}}")
        else:
            star = "*" if getattr(node, "memory", False) else ""
            lines.append(f"{pad}{node.kind}{star} {node.name} {{")
            for child in node.children:
                walk(child, depth + 1)
            lines.append(f"{pad}}}")

    walk(root, 0)
    return "\n".join(lines) + "\n"


def reference_signature(node: bt.Node) -> tuple:
    """The nested signature that ``structural_signature`` flattens."""
    if isinstance(node, Condition):
        return ("condition", node.condition_name)
    if isinstance(node, Action):
        return ("action", node.behavior_name, node.duration_override)
    if isinstance(node, Guard):
        return ("guard", node.condition_name, node.name, reference_signature(node.children[0]))
    children = tuple(reference_signature(c) for c in node.children)
    return (node.kind, node.name, getattr(node, "memory", False), children)


def regrouped(tree: bt.Node) -> bt.Node | None:
    """``tree`` with the first composite that has a next sibling given that
    sibling as its last child: the same preorder with other nesting; None
    when no composite has a next sibling."""
    for node in tree.iter_nodes():
        for i, child in enumerate(node.children[:-1]):
            if isinstance(child, (Sequence, Fallback, Parallel)):
                child.children.append(node.children.pop(i + 1))
                return tree
    return None


def test_print_tree_and_structural_signature_match_their_recursive_references():
    rng = random.Random(2018)
    trees = []
    for _ in range(300):
        shape = random_shape(rng, 0, itertools.count(), max_depth=rng.randint(0, 3))
        seed = rng.random()
        variants = [build(shape, (), []), regrouped(build(shape, (), []))]
        for tree in filter(None, variants):
            vary = random.Random(seed)
            for node in tree.iter_nodes():
                if isinstance(node, Action) and vary.random() < 0.2:
                    node.duration_override = vary.randint(1, 2)
                elif isinstance(node, Guard) and vary.random() < 0.5:
                    node.children[0] = Condition(f"flag_{vary.randrange(N_FLAGS)}")
            trees.append(tree)
    for tree in trees:
        assert print_tree(tree) == reference_print_tree(tree)
    old = [reference_signature(tree) for tree in trees]
    new = [structural_signature(tree) for tree in trees]
    # the same nodes in the same preorder, told apart only by their levels
    unleveled = [tuple(fields[1:] for fields in signature) for signature in new]
    pairs: Counter[str] = Counter()
    for i, j in itertools.combinations(range(len(trees)), 2):
        assert (new[i] == new[j]) == (old[i] == old[j]), (old[i], old[j])
        pairs["equal" if old[i] == old[j] else "unequal"] += 1
        pairs["same preorder, other nesting"] += unleveled[i] == unleveled[j] and old[i] != old[j]
    assert min(pairs.values()) >= 20, pairs
