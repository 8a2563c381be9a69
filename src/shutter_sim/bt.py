"""Behavior tree engine: composite nodes, guards, leaves, and the tick traversal.

Semantics in brief:

* ``tick`` traverses from the root each tick and returns Success, Running, or
  Failure.  Sequence and Fallback stop at the first child that breaks their
  chain; Parallel ticks every child every tick and fails if any child fails.
* Composites marked ``memory`` resume at the child that last returned Running
  instead of re-ticking earlier children.
* A Guard with a false condition returns Running without ticking its child and
  emits a hold action, freezing the subtree in place.
* Switch rule: a node that returns Success or Failure leaves its subtree as
  ``reset()`` leaves it, so only a child cut off mid-run is reset: a chain's
  last running child when an earlier child breaks the chain before it, and a
  failing Parallel's children that returned Running on that tick.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

from .errors import ConfigurationError
from .world import ACTION_HALT, InteractionContext, emit

# Deepest tree level (the root is 1).  Ticks recurse once per level, so
# validate_tree refuses a deeper tree and parse_tree a deeper file.
_MAX_TREE_DEPTH = 100


class NodeStatus(enum.Enum):
    SUCCESS = "Success"
    RUNNING = "Running"
    FAILURE = "Failure"


class Node:
    """Base node: a name, children and a preorder id; subclasses define ``tick``."""

    kind = "node"

    def __init__(self, name: str, children: list[Node] | None = None):
        self.name = name
        self.children: list[Node] = list(children or [])
        self.node_id: int | None = None
        self._validated = False

    def tick(self, ctx: InteractionContext) -> NodeStatus:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear runtime state for this node and its whole subtree, over
        ``_preorder``.  Idempotent.  A node met a second time raises
        ConfigurationError."""
        for node, _ in _preorder(self):
            node._reset_self()

    def _reset_self(self) -> None:
        pass

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
        self.last_running: int | None = None

    def tick(self, ctx: InteractionContext) -> NodeStatus:
        prev = self.last_running
        start = (prev or 0) if self.memory else 0
        for i in range(start, len(self.children)):
            status = self.children[i].tick(ctx)
            if status is NodeStatus.RUNNING or status is self.stop_on:
                break
        else:
            status = self.otherwise

        # child i is the last one ticked; a memory chain starts at prev, so
        # only a plain chain can be broken before it reaches prev
        if prev is not None and prev > i:
            self.children[prev].reset()
        self.last_running = i if status is NodeStatus.RUNNING else None
        return status

    def _reset_self(self) -> None:
        self.last_running = None


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

    def tick(self, ctx: InteractionContext) -> NodeStatus:
        statuses = [child.tick(ctx) for child in self.children]
        if NodeStatus.FAILURE in statuses:
            # the children still Running are cut off; a reset emits nothing
            for child, status in zip(self.children, statuses):
                if status is NodeStatus.RUNNING:
                    child.reset()
            return NodeStatus.FAILURE
        return NodeStatus.RUNNING if NodeStatus.RUNNING in statuses else NodeStatus.SUCCESS


class Guard(Node):
    """Decorator that freezes its subtree while a condition is false.

    While blocked it emits a motion-hold action and returns Running; the child
    keeps its runtime state untouched and resumes in place once unblocked.
    """

    kind = "guard"

    def __init__(self, condition_name: str, name: str, child: Node):
        super().__init__(name, [child])
        self.condition_name = condition_name
        self._predicate: Callable[[InteractionContext], bool] | None = None

    @property
    def child(self) -> Node:
        return self.children[0]

    def tick(self, ctx: InteractionContext) -> NodeStatus:
        if self._predicate(ctx):
            return self.child.tick(ctx)
        emit(ctx, ACTION_HALT)
        return NodeStatus.RUNNING


class Condition(Node):
    """Leaf that maps a context predicate onto Success/Failure."""

    kind = "condition"

    def __init__(self, condition_name: str):
        super().__init__(condition_name)
        self.condition_name = condition_name
        self._predicate: Callable[[InteractionContext], bool] | None = None

    def tick(self, ctx: InteractionContext) -> NodeStatus:
        return NodeStatus.SUCCESS if self._predicate(ctx) else NodeStatus.FAILURE


class Action(Node):
    """Leaf that advances a catalogued behavior one step per tick.

    A behavior with duration d returns Running for its first d-1 steps and
    Success on the d-th unless the behavior itself dictates the status.
    """

    kind = "action"

    def __init__(self, behavior_name: str, duration: int | None = None):
        super().__init__(behavior_name)
        self.behavior_name = behavior_name
        self.duration_override = duration
        self.elapsed = 0
        self._behavior = None  # set by validate_tree
        self._duration: int | None = None

    def tick(self, ctx: InteractionContext) -> NodeStatus:
        step = self.elapsed
        if self._behavior.step_fn is not None:
            self._behavior.step_fn(ctx, step)
        if self._behavior.status_fn is not None:
            status = self._behavior.status_fn(ctx, step)
        else:
            status = NodeStatus.RUNNING if step + 1 < self._duration else NodeStatus.SUCCESS
        if status is NodeStatus.RUNNING:
            self.elapsed += 1
        else:
            self.elapsed = 0
        return status

    def _reset_self(self) -> None:
        self.elapsed = 0


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


def require_validated(root: Node) -> Node:
    """The tree's only check: ``root`` is a root validate_tree accepted."""
    if not root._validated:
        raise ConfigurationError("tree must pass validate_tree before it is ticked")
    return root


def tick(root: Node, ctx: InteractionContext) -> NodeStatus:
    """Advance by one tick a root validate_tree accepted."""
    return require_validated(root).tick(ctx)


def validate_tree(root: Node, catalogue) -> Node:
    """Check structure, assign node ids, and resolve names against a catalogue.

    Nodes are visited in preorder, without recursion, and numbered in that
    order.  Raises ConfigurationError on the first node met twice (a shared
    node or a cycle), on the first node nested deeper than
    ``_MAX_TREE_DEPTH`` levels, on the first malformed composite or guard or
    action duration, and then listing every unresolved condition/behavior name.
    """
    missing: list[str] = []
    for node_id, (node, depth) in enumerate(_preorder(root)):
        if depth > _MAX_TREE_DEPTH:
            raise ConfigurationError(
                f"{node.kind} {node.name!r} is nested deeper than {_MAX_TREE_DEPTH} levels")
        node.node_id = node_id
        if isinstance(node, (_Chain, Parallel)) and not node.children:
            raise ConfigurationError(f"composite {node.name!r} must have at least one child")
        if isinstance(node, Guard) and len(node.children) != 1:
            raise ConfigurationError(f"guard {node.name!r} must have exactly one child")
        if isinstance(node, (Guard, Condition)):
            try:
                node._predicate = catalogue.condition(node.condition_name)
            except ConfigurationError:
                missing.append(f"condition {node.condition_name!r}")
        if isinstance(node, Action):
            try:
                behavior = catalogue.behavior(node.behavior_name)
            except ConfigurationError:
                missing.append(f"behavior {node.behavior_name!r}")
            else:
                node._behavior = behavior
                node._duration = (
                    behavior.duration if node.duration_override is None else node.duration_override
                )
                _check_duration(f"action {node.behavior_name!r}", node._duration)
    if missing:
        raise ConfigurationError("unresolved names: " + ", ".join(sorted(set(missing))))
    root._validated = True
    return root


def _check_duration(owner: str, duration) -> None:
    """Refuse a duration that is not a positive ``int`` (a ``bool`` is not one)."""
    if type(duration) is not int:
        raise ConfigurationError(f"{owner} duration must be an integer")
    if duration < 1:
        raise ConfigurationError(f"{owner} duration must be positive")


def node_count(root: Node) -> int:
    return sum(1 for _ in root.iter_nodes())


def structural_signature(root: Node) -> tuple:
    """Shape of a tree minus runtime state and node ids, for equality checks:
    each node's level, kind, name and settings, in preorder."""
    return tuple((depth, node.kind, node.name, getattr(node, "memory", False),
                  getattr(node, "condition_name", None), getattr(node, "duration_override", None))
                 for node, depth in _preorder(root))
