"""Behavior tree engine: composite nodes, guards, leaves, and the tick traversal.

Semantics in brief:

* ``tick`` traverses from the root each tick and returns Success, Running, or
  Failure.  Sequence and Fallback stop at the first child that breaks their
  chain; Parallel ticks every child every tick and fails if any child fails.
* The traversal is the one ``validate_tree`` compiles: a closure per node
  over one state list, which the validated root holds.  It ticks the shape and
  callables validation saw; validating again picks up a change, fresh.
* A validated root is a controller with the protocol ``fsm.StateMachine`` has:
  a trace ``label``, ``reset()``, ``step(ctx)`` returning the status text, and
  ``snapshot()``/``restore(snapshot)`` of all its runtime state.
* Composites marked ``memory`` resume at the child that last returned Running
  instead of re-ticking earlier children.
* A Guard with a false condition returns Running without ticking its child and
  appends the shared hold record ``HOLD``, freezing the subtree in place.
* Switch rule: a node that returns Success or Failure leaves its subtree as
  ``reset()`` leaves it, so only a child cut off mid-run is reset: a chain's
  last running child when an earlier child breaks the chain before it, and a
  failing Parallel's children that returned Running on that tick.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

from .errors import ConfigurationError
from .world import ACTION_HALT, InteractionContext, emission

# The one record a blocked Guard appends, which the catalogue's hold_motion
# appends too: built and checked once, shared by every hold.
HOLD = emission(ACTION_HALT)

# Deepest tree level (the root is 1).  Ticks recurse once per level, so
# validate_tree refuses a deeper tree and parse_tree a deeper file.
_MAX_TREE_DEPTH = 100


class NodeStatus(enum.Enum):
    SUCCESS = "Success"
    RUNNING = "Running"
    FAILURE = "Failure"


SUCCESS, RUNNING, FAILURE = NodeStatus


class Node:
    """A description: a name, children and, once validated, a preorder id.

    The root validate_tree accepts also holds the tree's runtime, one
    ``(closure, state, initial, limits)`` record, which the protocol methods
    use; on any other node they raise the tick gate's ConfigurationError.  A
    copy or an unpickled node keeps neither the id nor the record.
    """

    kind = "node"
    label = "bt"  # the trace's controller field
    _initial = None  # the node's state slot after a reset
    node_id: int | None = None
    _runtime: tuple[Callable[[InteractionContext], NodeStatus], list, list, list] | None = None

    def __init__(self, name: str, children: list[Node] | None = None):
        self.name = name
        self.children: list[Node] = list(children or [])

    def __getstate__(self) -> dict:
        return {key: value for key, value in vars(self).items() if key not in ("node_id", "_runtime")}

    def _record(self) -> tuple:
        """The runtime record; the tick gate: refuses a node that holds none."""
        if self._runtime is None:
            raise ConfigurationError("tree must pass validate_tree before it is ticked")
        return self._runtime

    def reset(self) -> None:
        """Put every node's state back to its value after validation."""
        _, state, initial, _ = self._record()
        state[:] = initial

    def step(self, ctx: InteractionContext) -> str:
        """Tick once via ``bt.tick``, found by name so a wrapper over it sees
        each step, and return the status text.  The text is read from the
        enum member's ``_value_`` attribute, equal to ``.value``, which on
        CPython 3.11 is a Python-level property and costs a call a tick."""
        return tick(self, ctx)._value_

    def snapshot(self) -> tuple:
        """The tree's state, indexed by ``node_id``: a chain's Running child or
        None, an action's steps in its activation, None for other nodes."""
        return tuple(self._record()[1])

    def restore(self, snapshot: tuple) -> None:
        """Set the tree's state to ``snapshot``, refusing one this tree could
        not have taken: a snapshot of another length, or a slot its node could
        not hold.  A chain's slot is None or the index of one of its children,
        an action's a non-negative ``int`` (a ``bool`` is not one), and any
        other node's None."""
        _, state, _, limits = self._record()
        _check_snapshot(snapshot, len(state))
        for node_id, (value, limit) in enumerate(zip(snapshot, limits)):
            if limit is None:  # an action
                if type(value) is int and value >= 0:
                    continue
                wanted = "a non-negative integer"
            elif value is None or type(value) is int and 0 <= value < limit:
                continue
            else:
                wanted = f"None or a child index below {limit}" if limit else "None"
            raise ConfigurationError(f"snapshot value {value!r} of node {node_id} is not {wanted}")
        state[:] = snapshot  # in place: the closures hold this list

    def iter_nodes(self) -> Iterator[Node]:
        """This node and every descendant, in preorder."""
        return (node for node, _ in _preorder(self))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class _Chain(Node):
    """Ticks children left to right until one breaks the chain.

    A child breaks the chain by returning ``stop_on`` or Running, and the
    chain returns that status; when no child breaks it, the chain returns
    ``otherwise``.
    """

    stop_on: NodeStatus
    otherwise: NodeStatus

    def __init__(self, name: str, children: list[Node], memory: bool = False):
        super().__init__(name, children)
        self.memory = memory


class Sequence(_Chain):
    """Ticks children left to right; fails fast, succeeds when all succeed."""

    kind = "sequence"
    stop_on = NodeStatus.FAILURE
    otherwise = NodeStatus.SUCCESS


class Fallback(_Chain):
    """Ticks children left to right; succeeds fast, fails when all fail."""

    kind = "fallback"
    stop_on = NodeStatus.SUCCESS
    otherwise = NodeStatus.FAILURE


class Parallel(Node):
    """Ticks every child every tick; any Failure fails, all Success succeeds.

    Children after a failing child are still ticked in the same tick so the
    emission order stays deterministic, and the Parallel keeps no state.
    """

    kind = "parallel"


class Guard(Node):
    """Decorator that freezes its subtree while a condition is false.

    While blocked it appends ``HOLD`` and returns Running; the child
    keeps its runtime state untouched and resumes in place once unblocked.
    """

    kind = "guard"

    def __init__(self, condition_name: str, name: str, child: Node):
        super().__init__(name, [child])
        self.condition_name = condition_name


class Condition(Node):
    """Leaf that maps a context predicate onto Success/Failure."""

    kind = "condition"

    def __init__(self, condition_name: str):
        super().__init__(condition_name)
        self.condition_name = condition_name


class Action(Node):
    """Leaf that advances a catalogued behavior one step per tick.

    A behavior with duration d returns Running for its first d-1 steps and
    Success on the d-th unless the behavior itself dictates the status.
    """

    kind = "action"
    _initial = 0

    def __init__(self, behavior_name: str, duration: int | None = None):
        super().__init__(behavior_name)
        self.behavior_name = behavior_name
        self.duration_override = duration


def _preorder(root: Node) -> Iterator[tuple[Node, int]]:
    """Each node under ``root`` with its level (the root's is 1), in preorder.

    The walk keeps its own stack, so no depth of tree can exhaust Python's
    recursion limit.  A node met a second time, shared by two parents or on a
    cycle, raises ConfigurationError, so no walk can run forever.
    """
    seen: set[Node] = set()
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if node in seen:
            raise _met_twice(node)
        seen.add(node)
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def _met_twice(node: Node) -> ConfigurationError:
    return ConfigurationError(f"{node.kind} {node.name!r} appears more than once in the tree")


def tick(root: Node, ctx: InteractionContext) -> NodeStatus:
    """Advance by one tick a root validate_tree accepted."""
    return (root._runtime or root._record())[0](ctx)


def _check_snapshot(snapshot, size: int) -> None:
    """Refuse a controller snapshot that does not hold ``size`` values."""
    if len(snapshot) != size:
        raise ConfigurationError(f"snapshot holds {len(snapshot)} values, not {size}")


def validate_tree(root: Node, catalogue) -> Node:
    """Check structure, assign node ids, resolve names against a catalogue,
    and compile the tree.

    Nodes are visited in preorder, without recursion, and numbered in that
    order.  Raises ConfigurationError on the first node met twice (a shared
    node or a cycle), on the first node nested deeper than
    ``_MAX_TREE_DEPTH`` levels, on the first node of a shape ``_check_shape``
    refuses or with a bad action duration, and then listing every unresolved
    condition/behavior name.

    The accepted root alone keeps a runtime: the closure that ticks it, one
    state list with a slot per node id, the list's initial values, and each
    slot's limit for ``restore``: a chain's child count, None for an action
    (any step count), 0 for any other node (no ``int``).  Each
    node's closure holds its children's closures, the callables resolved here,
    the lists and its own id, and no node, so the tree holds no reference
    cycle.  Validating again picks up a change to the tree, with fresh state.
    """
    missing: list[str] = []
    order: list[tuple[Node, object]] = []  # each node with what it resolved, in preorder
    for node_id, (node, depth) in enumerate(_preorder(root)):
        if depth > _MAX_TREE_DEPTH:
            raise ConfigurationError(
                f"{node.kind} {node.name!r} is nested deeper than {_MAX_TREE_DEPTH} levels")
        _check_shape(node)
        node.node_id = node_id
        resolved = None
        if isinstance(node, Action):
            try:
                behavior = catalogue.behavior(node.behavior_name)
            except ConfigurationError:
                missing.append(f"behavior {node.behavior_name!r}")
            else:
                duration = (
                    behavior.duration if node.duration_override is None else node.duration_override
                )
                _check_duration(f"action {node.behavior_name!r} duration", duration)
                resolved = (behavior.step_fn, behavior.status_fn, duration)
        elif isinstance(node, (Guard, Condition)):
            try:
                resolved = catalogue.condition(node.condition_name)
            except ConfigurationError:
                missing.append(f"condition {node.condition_name!r}")
        order.append((node, resolved))
    if missing:
        raise ConfigurationError("unresolved names: " + ", ".join(sorted(set(missing))))

    initial = [node._initial for node, _ in order]
    limits = [len(node.children) if isinstance(node, _Chain)
              else None if isinstance(node, Action) else 0 for node, _ in order]
    state = list(initial)
    compiled: list = [None] * len(order)
    ends = [0] * len(order)  # one past the last id of each node's subtree
    for node, resolved in reversed(order):  # children before their parent
        slot = node.node_id
        ids = [child.node_id for child in node.children]
        ends[slot] = ends[ids[-1]] if ids else slot + 1
        children = [compiled[i] for i in ids]
        compiled[slot] = _compile(node, resolved, children, ids + [ends[slot]], state, initial)
        node._runtime = None
    root._runtime = (compiled[0], state, initial, limits)
    return root


def _check_shape(node: Node) -> None:
    """Refuse a node of a shape no tree may have: a composite without
    children or with a chain ``memory`` that is not a ``bool``, a leaf (a
    condition or action) with children, a guard without exactly one child, or
    a kind the engine does not tick.  ``validate_tree`` and ``print_tree``
    check each node with it."""
    if isinstance(node, (_Chain, Parallel)):
        if not node.children:
            raise ConfigurationError(f"composite {node.name!r} must have at least one child")
        if isinstance(node, _Chain) and type(node.memory) is not bool:
            raise ConfigurationError(f"{node.kind} {node.name!r} memory {node.memory!r} is not a bool")
    elif isinstance(node, (Condition, Action)) and node.children:
        raise ConfigurationError(f"{node.kind} {node.name!r} is a leaf and cannot have children")
    elif isinstance(node, Guard) and len(node.children) != 1:
        raise ConfigurationError(f"guard {node.name!r} must have exactly one child")
    elif not isinstance(node, (Guard, Condition, Action)):
        raise ConfigurationError(f"{node.kind} {node.name!r} is not a node kind the engine ticks")


def _compile(node: Node, resolved, children: list, bounds: list[int],
             state: list, initial: list) -> Callable[[InteractionContext], NodeStatus]:
    """The closure that ticks ``node``.

    Child i ticks as ``children[i]``, and its subtree holds the ids from
    ``bounds[i]`` up to ``bounds[i + 1]``, so ``state[a:b] = initial[a:b]``
    resets it.  Each closure binds what it reads as default arguments: they
    are fast locals on the tick, and they cost the garbage collector one
    tuple per closure where cells would cost one object per value.
    """
    slot = node.node_id
    if isinstance(node, _Chain):
        pairs = list(enumerate(children))

        def chain(ctx, state=state, slot=slot, pairs=pairs, memory=node.memory, stop_on=node.stop_on,
                  otherwise=node.otherwise, bounds=bounds, initial=initial):
            prev = state[slot]
            for i, child in pairs[prev:] if memory and prev else pairs:
                status = child(ctx)
                if status is RUNNING or status is stop_on:
                    break
            else:
                status = otherwise
            # child i is the last one ticked; a memory chain starts at prev, so
            # only a plain chain can be broken before it reaches prev
            if prev is not None and prev > i:
                a, b = bounds[prev], bounds[prev + 1]
                state[a:b] = initial[a:b]
            state[slot] = i if status is RUNNING else None
            return status

        return chain
    if isinstance(node, Parallel):
        def parallel(ctx, children=children, state=state, bounds=bounds, initial=initial):
            statuses = []
            for child in children:
                statuses.append(child(ctx))
            if FAILURE in statuses:
                # the children still Running are cut off; a reset emits nothing
                for a, b, status in zip(bounds, bounds[1:], statuses):
                    if status is RUNNING:
                        state[a:b] = initial[a:b]
                return FAILURE
            return RUNNING if RUNNING in statuses else SUCCESS

        return parallel
    if isinstance(node, Guard):
        def guard(ctx, predicate=resolved, child=children[0], hold=HOLD):
            if predicate(ctx):
                return child(ctx)
            ctx.emissions_this_tick.append(hold)
            return RUNNING

        return guard
    if isinstance(node, Condition):
        def condition(ctx, predicate=resolved):
            return SUCCESS if predicate(ctx) else FAILURE

        return condition
    step_fn, status_fn, duration = resolved

    def action(ctx, state=state, slot=slot, step_fn=step_fn, status_fn=status_fn,
               duration=duration):
        step = state[slot]
        if step_fn is not None:
            step_fn(ctx, step)
        if status_fn is not None:
            status = status_fn(ctx, step)
        else:
            status = RUNNING if step + 1 < duration else SUCCESS
        state[slot] = step + 1 if status is RUNNING else 0
        return status

    return action


def _check_duration(what: str, duration) -> None:
    """Refuse a duration in ticks that is not a positive ``int`` (a ``bool``
    is not one); ``what`` names it in the message."""
    if type(duration) is not int:
        raise ConfigurationError(f"{what} must be an integer")
    if duration < 1:
        raise ConfigurationError(f"{what} must be positive")


def node_count(root: Node) -> int:
    return sum(1 for _ in root.iter_nodes())
