"""Photographer interaction: behavior catalogue, utterances, and controller builders.

The same catalogue drives both controller styles so their emission traces can
be compared action for action.  A behavior is a small step function over the
shared context plus an optional status rule; conditions are plain predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import bt
from .bt import HOLD, NodeStatus
from .errors import ConfigurationError
from .fsm import State, StateMachine, Timeout, Transition
from .groups import same_zone_groups, someone_in_zone, zone_groups
from .world import (
    ACTION_IDLE,
    ACTION_SAY,
    ACTION_SHOW_PHOTO,
    ACTION_TAKE_PHOTO,
    BUTTON_NO,
    BUTTON_YES,
    InteractionContext,
    Roster,
    emission,
    emit,
)

ANNOUNCE_TEXT = "I am about to take your photo."
FAREWELL_TEXT = "Maybe next time!"
PRAISE_TEXTS = (
    "You look great in this photo.",
    "What a great shot!",
    "This photo turned out wonderfully.",
)

_NUMBER_WORDS = {
    2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven",
    8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}

DEFAULT_COOLDOWN_TICKS = 10
PHOTOS_PER_SESSION = 3
ABANDON_TIMEOUT_TICKS = 15
# build_photographer_fsm's ways of handling abandonment, and the CLI's --fsm-mode
ABANDONMENT_MODES = ("none", "transitions", "timeouts")

def greeting_text(n: int) -> str:
    """Consent question for a group of n persons; small counts are spelled out."""
    if n < 1:
        raise ValueError("greeting requires at least one person")
    if n == 1:
        return "Would you like me to take your photo?"
    word = _NUMBER_WORDS.get(n, str(n))
    return f"Would you like me to take a photo of the {word} of you?"


def praise_text(index: int) -> str:
    """Praise line for photo ``index`` (1-based, at most one session's worth)."""
    if not 1 <= index <= PHOTOS_PER_SESSION:
        raise ValueError(f"photo index {index} out of range")
    return PRAISE_TEXTS[(index - 1) % len(PRAISE_TEXTS)]


# Every fixed emission of the catalogue, built and checked once; the photo
# records are indexed by photo index - 1, for indexes 1..PHOTOS_PER_SESSION.
_IDLE = emission(ACTION_IDLE)
_ANNOUNCE = emission(ACTION_SAY, ANNOUNCE_TEXT)
_FAREWELL = emission(ACTION_SAY, FAREWELL_TEXT)
_SESSION = range(1, PHOTOS_PER_SESSION + 1)
_TAKE = tuple(emission(ACTION_TAKE_PHOTO, i) for i in _SESSION)
_SHOW = tuple(emission(ACTION_SHOW_PHOTO, i) for i in _SESSION)
_PRAISE = tuple(emission(ACTION_SAY, praise_text(i)) for i in _SESSION)


def _emit_photo(ctx: InteractionContext, records: tuple, action: str, index: int,
                text: Callable[[int], str] | None = None) -> None:
    """Append ``records``' record of photo ``index``.  An index with none, one
    outside 1..``PHOTOS_PER_SESSION`` or not an ``int``, goes through ``emit``
    and its checks, with ``text(index)`` as the payload, or with the index
    itself when ``text`` is None."""
    if type(index) is int and 1 <= index <= PHOTOS_PER_SESSION:
        ctx.emissions_this_tick.append(records[index - 1])
    else:
        emit(ctx, action, index if text is None else text(index))


@dataclass(frozen=True)
class Behavior:
    """A named, steppable unit shared by tree leaves and machine states.

    ``step_fn(ctx, step)`` performs the emissions for the given 0-based step.
    Without a ``status_fn`` the behavior runs for ``duration`` steps; with one
    the returned status decides completion (used for event-driven waits).
    """

    name: str
    duration: int = 1
    step_fn: Callable[[InteractionContext, int], None] | None = None
    status_fn: Callable[[InteractionContext, int], NodeStatus] | None = None


class Catalogue:
    """Registry resolving behavior and condition names for both engines."""

    def __init__(self):
        self._behaviors: dict[str, Behavior] = {}
        self._conditions: dict[str, Callable[[InteractionContext], bool]] = {}

    def register_behavior(self, behavior: Behavior) -> None:
        """Add ``behavior``, refusing a duration that is not a positive ``int``
        and a ``step_fn`` or ``status_fn`` that is neither callable nor None."""
        bt._check_duration(f"behavior {behavior.name!r} duration", behavior.duration)
        for role in ("step_fn", "status_fn"):
            fn = getattr(behavior, role)
            if fn is not None:
                _check_callable(f"behavior {behavior.name!r} {role}", fn)
        self._behaviors[behavior.name] = behavior

    def register_condition(self, name: str, predicate: Callable[[InteractionContext], bool]) -> None:
        """Add the condition ``name``, refusing a predicate that is not callable."""
        _check_callable(f"condition {name!r} predicate", predicate)
        self._conditions[name] = predicate

    def behavior(self, name: str) -> Behavior:
        try:
            return self._behaviors[name]
        except (KeyError, TypeError):  # a TypeError for an unhashable name
            raise ConfigurationError(f"unknown behavior {name!r}") from None

    def condition(self, name: str) -> Callable[[InteractionContext], bool]:
        try:
            return self._conditions[name]
        except (KeyError, TypeError):  # a TypeError for an unhashable name
            raise ConfigurationError(f"unknown condition {name!r}") from None

    def behavior_names(self) -> list[str]:
        return sorted(self._behaviors)

    def condition_names(self) -> list[str]:
        return sorted(self._conditions)


def _check_callable(what: str, fn) -> None:
    """Refuse a catalogue entry the engines could not call; ``what`` names it,
    so the fault surfaces when the entry is registered, not at a tick."""
    if not callable(fn):
        raise ConfigurationError(f"{what} {fn!r} is not callable")


def _engaged_size(ctx: InteractionContext) -> int:
    """The engaged-group size of ``ctx.persons``.

    A ``world.Roster``, which is what ``sim.run`` gives the controller, is
    read-only, so its size is the first item of its ``zones`` record
    ``(size, members)``, which the first greeting on the roster in any run
    over the script fills: copied from ``ctx.sized``, the last ``Roster``
    whose size this run read or filled, when ``groups.same_zone_groups``
    proves from that record's members that the two rosters' zone groups are
    the same, and by a sweep otherwise.  Any other dict, one a
    behavior assigned or one in a context built by hand, is swept afresh.
    The size depends on the roster's values alone, so the stored size gives
    what a sweep would.
    """
    roster = ctx.persons
    if type(roster) is not Roster:
        return zone_groups(roster.values())[0]
    if roster.zones is None:
        last = ctx.sized
        if last is not None and same_zone_groups(last, last.zones, roster):
            roster.zones = last.zones
        else:
            roster.zones = zone_groups(roster.values())
    ctx.sized = roster
    return roster.zones[0]


def default_catalogue() -> Catalogue:
    """The photographer's behaviors and conditions: perception at the ``groups``
    constants, and a cooldown of ``DEFAULT_COOLDOWN_TICKS`` after a decline."""
    cat = Catalogue()

    def person_detected(ctx: InteractionContext) -> bool:
        # the cheap cooldown test first: no perception while cooling down; and
        # the engaged group size is >= 1 exactly when someone is in the zone
        return ctx.clock >= ctx.cooldown_until and someone_in_zone(ctx.persons.values())

    def no_person(ctx: InteractionContext) -> bool:
        # not person_detected(ctx), written out so that a check is one call
        return ctx.clock < ctx.cooldown_until or not someone_in_zone(ctx.persons.values())

    cat.register_condition("person_detected", person_detected)
    cat.register_condition("no_person", no_person)
    cat.register_condition("no_hazard", lambda ctx: not ctx.hazard_hand_near_arm)
    cat.register_condition("hazard", lambda ctx: ctx.hazard_hand_near_arm)
    cat.register_condition("network_up", lambda ctx: ctx.network_ok)
    cat.register_condition("button_yes", lambda ctx: BUTTON_YES in ctx.buttons_pressed_this_tick)
    cat.register_condition("button_no", lambda ctx: BUTTON_NO in ctx.buttons_pressed_this_tick)
    button_yes, button_no = cat.condition("button_yes"), cat.condition("button_no")
    cat.register_condition("photos_done", lambda ctx: ctx.photos_taken >= PHOTOS_PER_SESSION)
    cat.register_condition("praise_done", lambda ctx: ctx.photos_shown >= PHOTOS_PER_SESSION)
    cat.register_condition("always", lambda ctx: True)

    def do_idle(ctx: InteractionContext, step: int) -> None:
        ctx.emissions_this_tick.append(_IDLE)

    def do_greet(ctx: InteractionContext, step: int) -> None:
        if step == 0:
            n = _engaged_size(ctx)
            # a new greeting opens a fresh photo session
            ctx.photos_taken = 0
            ctx.photos_shown = 0
            emit(ctx, ACTION_SAY, greeting_text(n))

    def consent_status(ctx: InteractionContext, step: int) -> NodeStatus:
        # yes outranks no, as in the machine's AskConsent guard priorities
        if button_yes(ctx):
            return NodeStatus.SUCCESS
        if button_no(ctx):
            return NodeStatus.FAILURE
        return NodeStatus.RUNNING

    def do_announce(ctx: InteractionContext, step: int) -> None:
        if step == 0:
            ctx.emissions_this_tick.append(_ANNOUNCE)

    def do_take_photo(ctx: InteractionContext, step: int) -> None:
        # one photo a step, up to the session's photos however long the action lasts
        if ctx.photos_taken < PHOTOS_PER_SESSION:
            index = ctx.photos_taken + 1
            _emit_photo(ctx, _TAKE, ACTION_TAKE_PHOTO, index)
            ctx.photos_taken = index

    def do_show_and_praise(ctx: InteractionContext, step: int) -> None:
        # even steps present the next photo, odd steps praise it
        index = ctx.photos_shown + 1
        if step % 2 == 0:
            _emit_photo(ctx, _SHOW, ACTION_SHOW_PHOTO, index)
        else:
            _emit_photo(ctx, _PRAISE, ACTION_SAY, index, praise_text)
            ctx.photos_shown = index

    def do_farewell(ctx: InteractionContext, step: int) -> None:
        if step == 0:
            ctx.emissions_this_tick.append(_FAREWELL)
            ctx.cooldown_until = ctx.clock + DEFAULT_COOLDOWN_TICKS

    def do_hold(ctx: InteractionContext, step: int) -> None:
        ctx.emissions_this_tick.append(HOLD)

    cat.register_behavior(Behavior("idle", 1, do_idle))
    cat.register_behavior(Behavior("greet", 2, do_greet))
    cat.register_behavior(Behavior("await_consent", 1, None, consent_status))
    cat.register_behavior(Behavior("announce", 1, do_announce))
    cat.register_behavior(Behavior("take_photo", 1, do_take_photo))
    cat.register_behavior(Behavior("show_and_praise", 2, do_show_and_praise))
    # two ticks: the goodbye lands on the first, the second never runs because
    # the cooldown ends the episode; one tick would let the surrounding
    # sequence continue into the photo steps on the refusal tick itself
    cat.register_behavior(Behavior("farewell", 2, do_farewell))
    cat.register_behavior(Behavior("hold_motion", 1, do_hold))
    return cat


def build_photographer_bt(hazard_guards: bool = True) -> bt.Node:
    """The photographer tree, validated and ready to tick.

    The root is a fallback without memory, so ``wait``'s ``no_person`` is
    ticked first on every tick, and its success resets a running session:
    that is how the tree abandons a session, with no node of its own.
    The arm-motion actions, ``announce`` and the ``take_photo``s, sit in one
    memory sequence behind one ``no_hazard`` guard, which holds the block
    where it stopped and resumes it there; the hazard cannot change within a
    tick, so this holds exactly where a guard per action would.
    ``hazard_guards=False`` puts the four actions in ``main`` unguarded.
    """
    wait = bt.Sequence("wait", [bt.Condition("no_person"), bt.Action("idle")])
    consent = bt.Fallback("consent", [bt.Action("await_consent"), bt.Action("farewell")])
    motion = [bt.Action("announce"), *(bt.Action("take_photo") for _ in range(PHOTOS_PER_SESSION))]
    if hazard_guards:
        motion = [bt.Guard("no_hazard", "motion_guard", bt.Sequence("motion", motion, memory=True))]
    main = bt.Sequence("main", [
        bt.Action("greet"),
        consent,
        *motion,
        *(bt.Action("show_and_praise") for _ in range(PHOTOS_PER_SESSION)),
    ], memory=True)
    root = bt.Fallback("root", [wait, bt.Guard("network_up", "net_guard", main)])
    return bt.validate_tree(root, default_catalogue())


def build_photographer_fsm(
    abandonment: str = "transitions",
    include_halt: bool = True,
    catalogue: Catalogue | None = None,
) -> StateMachine:
    """The photographer machine.

    ``abandonment`` selects how a vanished group sends the machine home:
    ``"none"`` (not handled), ``"transitions"`` (a guarded edge to Waiting
    from every other state), or ``"timeouts"`` (a per-state timeout instead).
    ``include_halt=False`` drops the HaltMotion state and its paired edges.
    """
    if abandonment not in ABANDONMENT_MODES:
        raise ValueError(f"unknown abandonment mode {abandonment!r}")
    cat = catalogue or default_catalogue()

    states = [
        State("Waiting", "idle"),
        State("Greet", "greet"),
        State("AskConsent"),
        State("AnnouncePhoto", "announce"),
        State("TakePhoto", "take_photo"),
        State("ShowPraise", "show_and_praise"),
        State("Farewell", "farewell"),
    ]
    if include_halt:
        states.append(State("HaltMotion", "hold_motion"))

    transitions = [
        Transition("Waiting", "person_detected", "Greet", 1),
        Transition("Greet", "always", "AskConsent", 1),
        Transition("AskConsent", "button_yes", "AnnouncePhoto", 1),
        Transition("AskConsent", "button_no", "Farewell", 2),
        Transition("AnnouncePhoto", "always", "TakePhoto", 2),
        # finishing the photo set outranks the hazard hold: presentation
        # involves no arm motion, so it may proceed during a hazard
        Transition("TakePhoto", "photos_done", "ShowPraise", 1),
        Transition("ShowPraise", "praise_done", "Waiting", 1),
        Transition("Farewell", "always", "Waiting", 1),
    ]
    if include_halt:
        transitions += [
            Transition("AnnouncePhoto", "hazard", "HaltMotion", 1),
            Transition("TakePhoto", "hazard", "HaltMotion", 2),
            Transition("HaltMotion", "no_hazard", "AnnouncePhoto", 1, returns=True),
            Transition("HaltMotion", "no_hazard", "TakePhoto", 2, returns=True),
        ]
    non_waiting = [s.state_id for s in states if s.state_id != "Waiting"]
    timeouts = []
    if abandonment == "transitions":
        transitions += [Transition(s, "no_person", "Waiting", 0) for s in non_waiting]
    elif abandonment == "timeouts":
        timeouts = [Timeout(s, ABANDON_TIMEOUT_TICKS, "Waiting") for s in non_waiting]
    return StateMachine(states, transitions, initial="Waiting", catalogue=cat, timeouts=timeouts)


def structural_economy_report() -> dict[str, int]:
    """How many elements each controller style pays for the two reactive features.

    Counts are diffs between built artifacts with a feature on and off: tree
    nodes for the tree, transitions for the machine.  The tree's hazard hold
    is 2 nodes: the ``no_hazard`` guard and the memory sequence that gives it
    the arm-motion block as its one child.  The one exception is the tree's
    abandonment, which is 0 and no diff: no tree of this design turns it off,
    as the root's reactive fallback is what abandons.  A memory root, for
    one, would also stop ``farewell`` from ending a declined session.
    """
    bt_full = build_photographer_bt()
    bt_no_halt = build_photographer_bt(hazard_guards=False)
    fsm_plain = build_photographer_fsm("none")
    fsm_abandon = build_photographer_fsm("transitions")
    fsm_no_halt = build_photographer_fsm("none", include_halt=False)
    return {
        "bt_nodes_added_for_abandonment": 0,
        "fsm_transitions_added_for_abandonment": (
            fsm_abandon.count_elements()["n_transitions"]
            - fsm_plain.count_elements()["n_transitions"]
        ),
        "bt_nodes_added_for_halt": bt.node_count(bt_full) - bt.node_count(bt_no_halt),
        "fsm_transitions_added_for_halt": (
            fsm_plain.count_elements()["n_transitions"]
            - fsm_no_halt.count_elements()["n_transitions"]
        ),
    }
