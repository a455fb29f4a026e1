"""Agent generation and the two agent behaviors.

``generate_agents`` turns a validated setup graph into agent blueprints, one
per described asset.  ``instantiate`` brings a blueprint to life: a bus
identity, a transport channel to its device, a mirror entry in the data
graph.  Two behavior classes do the actual talking: :class:`GenericAgent`
for assets and :class:`KgAgent` for the mediator that owns the task state.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from dataclasses import dataclass

from . import vocab
from .acl import AclMessage, Bus, Performative
from .connection import AgentChannel, ConnectionComponent
from .errors import (
    EventRejectedError,
    GenerationError,
    TransportError,
    UnknownReceiverError,
    ValidationError,
)
from .protocol import (
    FAILED,
    ProtocolDefinition,
    TaskState,
    handle_request,
    next_action,
    next_push,
    record_event,
)
from .rami import AgentBlueprint, extract_blueprint, list_assets, validate_setup
from .store import NamedGraphStore
from .terms import Iri, Literal
from .transports import TransportRegistry
from .vocab import (
    HAS_REALM,
    HAS_STATUS,
    KG_AGENT_ID,
    OPERATOR_ID,
    STATUS_IDLE,
    STATUS_STOPPED,
    kgmas,
)
from .world import WarehouseWorld

log = logging.getLogger("kgmas.agents")


# -- specs ------------------------------------------------------------------


def spec_to_dict(bp: AgentBlueprint) -> dict:
    return {
        "agent_id": bp.agent_id,
        "asset": bp.asset_id.value,
        "asset_kind": bp.asset_kind.value,
        "realm": bp.realm,
        "binding": {"scheme": bp.binding.scheme, "endpoint": bp.binding.address},
        "channels": [
            {"topic": c.topic, "direction": c.direction,
             "message_kind": c.message_kind.value}
            for c in bp.channels
        ],
        "capabilities": [c.value for c in bp.capabilities],
        "coordination_role": bp.coordination_role.value,
    }


def generate_agents(store: NamedGraphStore, graph_id,
                    known_schemes=None) -> list[AgentBlueprint]:
    """One blueprint per asset in the setup graph, sorted by agent id.

    Validation comes first and accepts exactly the setups that can be
    built. An invalid setup raises :class:`GenerationError` carrying the
    validation issues, so callers can show exactly what to fix.
    """
    report = validate_setup(store, graph_id, known_schemes)
    if not report.ok:
        raise GenerationError("setup graph failed validation", list(report.issues))
    return sorted((extract_blueprint(store, graph_id, asset)
                   for asset in list_assets(store, graph_id)),
                  key=lambda bp: bp.agent_id)


# -- asset agents -----------------------------------------------------------


def _post(bus: Bus, message: AclMessage) -> None:
    """Send, dropping mail to an absent agent or a reply to a message of an
    ended conversation, which the bus has forgotten."""
    try:
        bus.send(message)
    except (UnknownReceiverError, ValidationError) as exc:
        log.info("%s: dropping %s to %s: %s", message.sender,
                 message.performative.value, message.receiver, exc)


class GenericAgent:
    """Behavior shared by every asset agent.

    The agent never decides what to do on its own: task requests are turned
    into queries to the mediator, instructions from the mediator are turned
    into peer requests or device commands, and finished device commands are
    reported back as events.  Task memory is per conversation, dropped on
    ``done`` or at its end: the task request acted on there, which names
    the task to the mediator, or an empty record after a bare perform.  A
    command in flight is dropped at the end of its conversation too.
    """

    def __init__(self, agent_id: str, bus: Bus, channel: AgentChannel | None):
        self.agent_id = agent_id
        self.bus = bus
        self.channel = channel
        self._reply_counter = itertools.count(1)
        self._command_counter = itertools.count(1)
        # conversation id -> the task request acted on there ({} if none)
        self._tasks: dict[str, dict] = {}
        # The device command in flight: its id, report and conversation.
        self.performing: dict | None = None

    def _send(self, performative: Performative, receiver: str, content,
              conversation: str, reply_with: str | None = None) -> None:
        _post(self.bus, AclMessage(performative, self.agent_id, receiver, content,
                                   conversation, reply_with))

    def _tell(self, performative: Performative, content: dict,
              conversation: str, reply_with: str | None = None) -> None:
        """Send to the mediator, naming the conversation's task if known."""
        request = self._tasks.get(conversation)
        if request:
            content["task"] = request["task"]
        self._send(performative, KG_AGENT_ID, content, conversation, reply_with)

    def _query(self, query: dict, conversation: str) -> None:
        self._tell(Performative.REQUEST, query, conversation,
                   f"{self.agent_id}-{next(self._reply_counter)}")

    def end_conversation(self, conversation: str) -> None:
        self._tasks.pop(conversation, None)
        if self.performing is not None and self.performing["conversation"] == conversation:
            self.performing = None

    def activate(self) -> None:
        """Drain the inbox, then check on any command in flight."""
        while (message := self.bus.try_receive(self.agent_id)) is not None:
            self._handle(message)
        if self.performing is not None and self.channel is not None:
            self._poll_device()

    def _handle(self, message: AclMessage) -> None:
        content = message.content if isinstance(message.content, dict) else {}
        performative = message.performative
        conversation = message.conversation_id
        if performative is Performative.REQUEST and "task" in content:
            self._tasks[conversation] = content
            query = ({"query": "next_action"} if message.sender == OPERATOR_ID
                     else {"query": "handle_request", "from": message.sender})
            self._query(query, conversation)
        elif performative is Performative.INFORM and message.sender == KG_AGENT_ID:
            self._follow(content, conversation)
        elif performative is Performative.CONFIRM and message.sender == KG_AGENT_ID:
            if conversation in self._tasks:
                self._query({"query": "next_action"}, conversation)
        elif performative in (Performative.REFUSE, Performative.FAILURE):
            log.info("%s: %s from %s: %s", self.agent_id, performative.value,
                     message.sender, content)
            if (self.performing is not None and message.sender == KG_AGENT_ID
                    and conversation == self.performing["conversation"]):
                self.performing = None
        else:
            log.debug("%s: ignoring %s from %s", self.agent_id,
                      performative.value, message.sender)

    def _follow(self, content: dict, conversation: str) -> None:
        action = content.get("action")
        if action == "send_request":
            self._send(Performative.REQUEST, content["to"], self._tasks.get(conversation),
                       conversation)
        elif action == "perform":
            self._tasks.setdefault(conversation, {})
            if self.channel is None:
                self._tell(Performative.FAILURE, {"error": "no_device"}, conversation)
                return
            command_id = next(self._command_counter)
            try:
                self.channel.send_command({
                    "op": "invoke",
                    "capability": content.get("capability"),
                    "params": content.get("params") or {},
                    "id": command_id,
                })
            except TransportError as exc:
                self._tell(Performative.FAILURE, {"error": str(exc)}, conversation)
                return
            self.performing = {
                "id": command_id,
                "report": content.get("report") or "action_completed",
                "conversation": conversation,
            }
        elif action == "done":
            self._tasks.pop(conversation, None)
        # "wait" and anything unknown: stay put until spoken to again

    def _poll_device(self) -> None:
        observation = self.channel.latest_observation()
        if observation is None:
            return
        context = self.performing
        if observation.get("done_id") == context["id"]:
            self.performing = None
            self._tell(Performative.INFORM, {"event": context["report"]},
                       context["conversation"])
        elif observation.get("failed_id") == context["id"]:
            self.performing = None
            self._tell(Performative.FAILURE,
                       {"error": observation.get("error") or "command_failed"},
                       context["conversation"])


# -- the mediator -----------------------------------------------------------


class KgAgent:
    """Holds the task state and answers every coordination query.

    Assets never talk each other through their work; they ask this agent
    what to do next ("next_action"), how to treat a peer request
    ("handle_request"), and tell it when something happened (an event
    inform).  Every message is routed to its task by its conversation id
    alone; each task has its own conversation.  The answers and every move
    of the task come from the rules in :mod:`kgmas.protocol`; this agent
    sends them, records each accepted event and mirrors the task into the
    data graph when it moved.  It is the one writer of task and event
    nodes, and the one place a task fails.
    When a step becomes current without its owner asking, the instruction
    is pushed.  A ``FAILURE`` fails its task only
    when the sender holds one of the task's roles; otherwise it is refused
    ``unknown_role`` like any other message from a role-less sender.
    """

    def __init__(self, bus: Bus, store: NamedGraphStore, data_graph,
                 clock=None):
        self.agent_id = KG_AGENT_ID
        self.bus = bus
        bus.register(self.agent_id)
        self.store = store
        self.data_graph = data_graph
        self._clock = clock or (lambda: 0)
        # conversation id -> the task it belongs to
        self._tasks: dict[str, TaskState] = {}
        self._task_counter = itertools.count(1)

    def create_task(self, protocol: ProtocolDefinition, params: dict) -> TaskState:
        number = next(self._task_counter)
        task = TaskState(f"Task_{protocol.task_name}_{number}", protocol,
                         {k: str(v) for k, v in params.items()})
        self._tasks[task.conversation_id] = task
        self._mirror(task)
        return task

    def fail(self, task: TaskState) -> None:
        """Fail an unfinished task; its cursor stays on the step it stalled at."""
        if not task.finished:
            task.status = FAILED
            self._mirror(task)

    def _mirror(self, task: TaskState) -> None:
        """Write a task's name, status and step cursor into the data graph."""
        self.store.replace(self.data_graph, task.iri, {
            vocab.TASK_NAME: [Literal(task.task_name)],
            vocab.TASK_STATUS: [Literal(task.status)],
            vocab.CURRENT_STEP_INDEX: [Literal(str(task.index), vocab.XSD_INTEGER)],
        })

    def end_conversation(self, conversation: str) -> None:
        """Forget a task; a later message in its conversation is refused."""
        self._tasks.pop(conversation, None)

    def activate(self) -> None:
        while (message := self.bus.try_receive(self.agent_id)) is not None:
            self._handle(message)

    # -- message handling --------------------------------------------------

    def _send(self, performative: Performative, receiver: str, content,
              conversation: str, in_reply_to: str | None = None) -> None:
        _post(self.bus, AclMessage(performative, self.agent_id, receiver, content,
                                   conversation, None, in_reply_to))

    def _handle(self, message: AclMessage) -> None:
        content = message.content if isinstance(message.content, dict) else {}
        performative = message.performative
        task = self._tasks.get(message.conversation_id)
        role = task.protocol.role_of_agent(message.sender) if task is not None else None
        is_failure = performative is Performative.FAILURE
        if is_failure and role is not None:
            if not task.finished:
                self.fail(task)
                log.info("kg: task %s failed at step %d: %s",
                         task.task_id, task.index, content)
            return
        is_query = performative is Performative.REQUEST
        if not (is_query or is_failure or (performative is Performative.INFORM
                                           and "event" in content)):
            log.debug("kg: ignoring %s from %s", performative.value,
                      message.sender)
            return
        query = content.get("query")
        if task is None:
            verb, reply = Performative.REFUSE, {"reason": "unknown_task"}
        elif is_query and query not in ("next_action", "handle_request"):
            verb, reply = Performative.REFUSE, {"reason": "unsupported"}
        elif role is None:
            verb, reply = Performative.REFUSE, {"reason": "unknown_role"}
        else:
            before = (task.index, task.status)
            if not is_query:
                verb, reply = self._record(task, role, content)
            else:
                reply = (next_action(task, role) if query == "next_action"
                         else handle_request(task, role, content))
                verb = Performative.INFORM
                if reply["action"] == "refuse":
                    verb, reply = Performative.REFUSE, {"reason": reply["reason"]}
            if (task.index, task.status) != before:
                self._mirror(task)
        self._send(verb, message.sender, reply, message.conversation_id,
                   message.reply_with if is_query else None)
        push = None if verb is Performative.REFUSE else next_push(task)
        if push is not None:
            self._send(Performative.INFORM, *push, task.conversation_id)

    def _record(self, task: TaskState, role: Iri,
                content: dict) -> tuple[Performative, dict]:
        """Accept an event and write its node, or refuse it."""
        event = content.get("event")
        try:
            step = record_event(task, role, event)
        except EventRejectedError as exc:
            return Performative.REFUSE, {"reason": "event_rejected", "detail": str(exc)}
        self.store.replace(self.data_graph, kgmas(f"{task.task_id}_event_{step}"), {
            vocab.EVENT_OF_TASK: [task.iri],
            vocab.EVENT_NAME: [Literal(event)],
            vocab.AT_STEP: [Literal(str(step), vocab.XSD_INTEGER)],
            vocab.AT_TICK: [Literal(str(self._clock()), vocab.XSD_INTEGER)],
        })
        return Performative.CONFIRM, {"event": event}


# -- lifecycle --------------------------------------------------------------


@dataclass
class AgentHandle:
    blueprint: AgentBlueprint
    agent: GenericAgent
    connection: ConnectionComponent | None
    state: str = "running"


def instantiate(blueprint: AgentBlueprint, *, bus: Bus, store: NamedGraphStore,
                data_graph, world: WarehouseWorld,
                registry: TransportRegistry) -> AgentHandle:
    """Build the live agent for a blueprint.

    Registers the bus identity, opens the agent's channel and then, when
    the world has a matching device, the device connection, which mirrors
    its device's state itself; the realm is mirrored here.
    """
    agent_id = blueprint.agent_id
    bus.register(agent_id)
    channel = connection = None
    try:
        channel = AgentChannel(blueprint, registry.resolve(blueprint.binding))
        if agent_id in world.devices:
            connection = ConnectionComponent(
                blueprint, registry.resolve(blueprint.binding), world, store, data_graph)
    except Exception:
        if channel is not None:
            channel.close()
        bus.unregister(agent_id)
        raise
    facts = {HAS_REALM: [kgmas(blueprint.realm)]}
    if connection is None:
        facts[HAS_STATUS] = [Literal(STATUS_IDLE)]
    store.replace(data_graph, blueprint.asset_id, facts)
    agent = GenericAgent(agent_id, bus, channel)
    return AgentHandle(blueprint, agent, connection)


def shutdown(handle: AgentHandle, *, bus: Bus, store: NamedGraphStore,
             data_graph) -> None:
    """Tear an agent down; safe to call more than once."""
    if handle.state == "stopped":
        return
    handle.state = "stopped"
    if handle.connection is not None:
        handle.connection.close()
    if handle.agent.channel is not None:
        handle.agent.channel.close()
    bus.unregister(handle.blueprint.agent_id)
    store.replace(data_graph, handle.blueprint.asset_id,
                  {HAS_STATUS: [Literal(STATUS_STOPPED)]})


def emit_specs(blueprints, directory) -> list[str]:
    """Write one JSON spec file per blueprint; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for blueprint in blueprints:
        path = os.path.join(directory, f"{blueprint.agent_id}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec_to_dict(blueprint), handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths
