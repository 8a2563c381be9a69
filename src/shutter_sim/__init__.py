"""Reactive interaction orchestration for a robot photographer.

Two controller styles, a behavior tree and a finite state machine, drive the
same photo-session interaction over a shared blackboard, so their structure
and emitted behavior can be compared under identical scripted scenarios.
"""

from .bt import (
    Action,
    Condition,
    Fallback,
    Guard,
    Node,
    NodeStatus,
    Parallel,
    Sequence,
    node_count,
    structural_signature,
    tick,
    validate_tree,
)
from .dsl import ScenarioScript, parse_scenario, parse_tree, print_tree
from .errors import ConfigurationError, ParseError, SimError, ValidationError
from .fsm import State, StateMachine, Timeout, Transition
from .groups import engaged_group_size, someone_in_zone
from .interaction import (
    ANNOUNCE_TEXT,
    FAREWELL_TEXT,
    PRAISE_TEXTS,
    Behavior,
    Catalogue,
    build_photographer_bt,
    build_photographer_fsm,
    default_catalogue,
    greeting_text,
    praise_text,
    structural_economy_report,
)
from .sim import (
    Divergence,
    DivergenceReport,
    TickRecord,
    compare,
    flatten_emissions,
    parse_trace,
    run,
    serialize_trace,
)
from .world import (
    ActionEmission,
    Event,
    InteractionContext,
    PersonObservation,
    emit,
    end_tick,
)

__version__ = "0.1.0"

__all__ = [
    "ANNOUNCE_TEXT", "Action", "ActionEmission", "Behavior", "Catalogue",
    "Condition", "ConfigurationError", "Divergence", "DivergenceReport",
    "Event", "FAREWELL_TEXT", "Fallback", "Guard",
    "InteractionContext", "Node", "NodeStatus", "PRAISE_TEXTS",
    "Parallel", "ParseError", "PersonObservation", "ScenarioScript",
    "Sequence", "SimError", "State", "StateMachine", "TickRecord", "Timeout",
    "Transition", "ValidationError",
    "build_photographer_bt", "build_photographer_fsm",
    "compare", "default_catalogue", "emit", "end_tick",
    "engaged_group_size", "flatten_emissions", "greeting_text",
    "node_count", "parse_scenario", "parse_trace", "parse_tree", "praise_text",
    "print_tree", "run", "serialize_trace", "someone_in_zone",
    "structural_economy_report", "structural_signature", "tick",
    "validate_tree",
]
