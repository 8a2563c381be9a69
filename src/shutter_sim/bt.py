"""Behavior tree engine: composite nodes, guards, leaves, and the tick traversal.

Semantics in brief:

* ``tick`` traverses from the root each tick and returns Success, Running, or
  Failure.  Sequence and Fallback stop at the first child that breaks their
  chain; Parallel ticks every child every tick and fails if any child fails.
* Composites marked ``memory`` resume at the child that last returned Running
  instead of re-ticking earlier children.
* A Guard with a false condition returns Running without ticking its child and
  emits a hold action, freezing the subtree in place.
* Switch rule: when the child a composite reported Running last tick is no
  longer the running child, or the composite finishes with Success/Failure,
  the previously running child's subtree is reset.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

from .errors import ConfigurationError
from .world import ACTION_HALT, ActionEmission, InteractionContext, emit


class NodeStatus(enum.Enum):
    SUCCESS = "Success"
    RUNNING = "Running"
    FAILURE = "Failure"


class Node:
    """Base node: identity, children, and tick bookkeeping."""

    kind = "node"

    def __init__(self, name: str, children: list[Node] | None = None):
        self.name = name
        self.children: list[Node] = list(children or [])
        self.node_id: int | None = None
        self.tick_count = 0
        self._validated = False

    def tick(self, ctx: InteractionContext) -> NodeStatus:
        self.tick_count += 1
        return self._tick(ctx)

    def _tick(self, ctx: InteractionContext) -> NodeStatus:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear runtime state for this node and its whole subtree.  Idempotent."""
        self._reset_self()
        for child in self.children:
            child.reset()

    def _reset_self(self) -> None:
        pass

    def iter_nodes(self) -> Iterator[Node]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

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
        self.resume_index = 0
        self.last_running: int | None = None

    def _tick(self, ctx: InteractionContext) -> NodeStatus:
        start = self.resume_index if self.memory else 0
        running_child: int | None = None
        for i in range(start, len(self.children)):
            status = self.children[i].tick(ctx)
            if status is NodeStatus.RUNNING:
                running_child = i
                break
            if status is self.stop_on:
                break
        else:
            status = self.otherwise

        prev = self.last_running
        if status is NodeStatus.RUNNING:
            if prev is not None and prev != running_child:
                self.children[prev].reset()
            self.last_running = running_child
        else:
            if prev is not None:
                self.children[prev].reset()
            self.last_running = None
        if self.memory:
            self.resume_index = running_child if status is NodeStatus.RUNNING else 0
        return status

    def _reset_self(self) -> None:
        self.resume_index = 0
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
    emission order stays deterministic.
    """

    kind = "parallel"

    def __init__(self, name: str, children: list[Node]):
        super().__init__(name, children)
        self.last_running_set: set[int] = set()

    def _tick(self, ctx: InteractionContext) -> NodeStatus:
        statuses = [child.tick(ctx) for child in self.children]
        if NodeStatus.FAILURE in statuses:
            status = NodeStatus.FAILURE
        elif all(s is NodeStatus.SUCCESS for s in statuses):
            status = NodeStatus.SUCCESS
        else:
            status = NodeStatus.RUNNING

        running_now = {i for i, s in enumerate(statuses) if s is NodeStatus.RUNNING}
        prev = self.last_running_set
        if status is NodeStatus.RUNNING:
            for i in sorted(prev - running_now):
                self.children[i].reset()
            self.last_running_set = running_now
        else:
            for i in sorted(prev | running_now):
                self.children[i].reset()
            self.last_running_set = set()
        return status

    def _reset_self(self) -> None:
        self.last_running_set = set()


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

    def _tick(self, ctx: InteractionContext) -> NodeStatus:
        if self._predicate is None:
            raise ConfigurationError(f"guard condition {self.condition_name!r} not resolved")
        if self._predicate(ctx):
            return self.child.tick(ctx)
        emit(ctx, ActionEmission(ctx.clock, ACTION_HALT))
        return NodeStatus.RUNNING


class Condition(Node):
    """Leaf that maps a context predicate onto Success/Failure."""

    kind = "condition"

    def __init__(self, condition_name: str):
        super().__init__(condition_name)
        self.condition_name = condition_name
        self._predicate: Callable[[InteractionContext], bool] | None = None

    def _tick(self, ctx: InteractionContext) -> NodeStatus:
        if self._predicate is None:
            raise ConfigurationError(f"condition {self.condition_name!r} not resolved")
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

    def _tick(self, ctx: InteractionContext) -> NodeStatus:
        if self._behavior is None:
            raise ConfigurationError(f"behavior {self.behavior_name!r} not resolved")
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


def tick(root: Node, ctx: InteractionContext) -> NodeStatus:
    """Advance a validated tree by one tick."""
    if not root._validated:
        raise ConfigurationError("tree must pass validate_tree before it is ticked")
    return root.tick(ctx)


def validate_tree(root: Node, catalogue) -> Node:
    """Check structure, assign node ids, and resolve names against a catalogue.

    Raises ConfigurationError listing every unresolved condition/behavior name.
    """
    missing: list[str] = []
    for node_id, node in enumerate(root.iter_nodes()):
        node.node_id = node_id
        if isinstance(node, (_Chain, Parallel)) and not node.children:
            raise ConfigurationError(f"composite {node.name!r} must have at least one child")
        if isinstance(node, Guard) and len(node.children) != 1:
            raise ConfigurationError(f"guard {node.name!r} must have exactly one child")
        if isinstance(node, (Guard, Condition)):
            if catalogue.has_condition(node.condition_name):
                node._predicate = catalogue.condition(node.condition_name)
            else:
                missing.append(f"condition {node.condition_name!r}")
        if isinstance(node, Action):
            if catalogue.has_behavior(node.behavior_name):
                behavior = catalogue.behavior(node.behavior_name)
                node._behavior = behavior
                node._duration = (
                    behavior.duration if node.duration_override is None else node.duration_override
                )
                if node._duration < 1:
                    raise ConfigurationError(
                        f"action {node.behavior_name!r} duration must be positive"
                    )
            else:
                missing.append(f"behavior {node.behavior_name!r}")
    if missing:
        raise ConfigurationError("unresolved names: " + ", ".join(sorted(set(missing))))
    root._validated = True
    return root


def node_count(root: Node) -> int:
    return sum(1 for _ in root.iter_nodes())


def structural_signature(node: Node) -> tuple:
    """Shape of a tree minus runtime state and node ids, for equality checks."""
    if isinstance(node, Condition):
        return ("condition", node.condition_name)
    if isinstance(node, Action):
        return ("action", node.behavior_name, node.duration_override)
    if isinstance(node, Guard):
        return ("guard", node.condition_name, node.name, structural_signature(node.child))
    children = tuple(structural_signature(c) for c in node.children)
    memory = getattr(node, "memory", False)
    return (node.kind, node.name, memory, children)
