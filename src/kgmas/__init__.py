"""Knowledge-graph coordinated multi-agent warehouse simulation.

A named-graph store holds two graphs: a setup graph describing assets,
channels and coordination protocols, and a data graph mirroring live
state.  Agents are generated from the setup graph, talk FIPA-ACL over an
in-process bus, drive simulated devices through pluggable transports, and
defer every coordination decision to a mediator that owns the task state.
"""

from .acl import AclMessage, Bus, Performative, canonical_json, format_trace
from .agents import (
    GenericAgent,
    KgAgent,
    generate_agents,
    instantiate,
    shutdown,
)
from .errors import (
    AclError,
    EventRejectedError,
    GenerationError,
    KgmasError,
    ProtocolError,
    TransportError,
    TurtleParseError,
    ValidationError,
    WorldError,
)
from .protocol import (
    ProtocolDefinition,
    TaskState,
    check_world_consistency,
    derive_trace_skeleton,
    load_protocol,
)
from .rami import AgentBlueprint, extract_blueprint, list_assets, validate_setup
from .runtime import TICK_MS, RunResult, Scenario
from .store import NamedGraphStore
from .terms import Iri, Literal, Pattern, Triple, Variable
from .transports import Endpoint, TransportKind, TransportRegistry, default_registry
from .world import NativeCommand, Observation, WarehouseWorld

__version__ = "0.1.0"

__all__ = [
    "AclError",
    "AclMessage",
    "AgentBlueprint",
    "Bus",
    "Endpoint",
    "EventRejectedError",
    "GenerationError",
    "GenericAgent",
    "Iri",
    "KgAgent",
    "KgmasError",
    "Literal",
    "NamedGraphStore",
    "NativeCommand",
    "Observation",
    "Pattern",
    "Performative",
    "ProtocolDefinition",
    "ProtocolError",
    "RunResult",
    "Scenario",
    "TICK_MS",
    "TaskState",
    "TransportError",
    "TransportKind",
    "TransportRegistry",
    "Triple",
    "TurtleParseError",
    "ValidationError",
    "Variable",
    "WarehouseWorld",
    "WorldError",
    "canonical_json",
    "check_world_consistency",
    "default_registry",
    "derive_trace_skeleton",
    "extract_blueprint",
    "format_trace",
    "generate_agents",
    "instantiate",
    "list_assets",
    "load_protocol",
    "shutdown",
    "validate_setup",
    "__version__",
]
