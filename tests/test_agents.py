"""Agent generation, lifecycle and the two behavior classes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from helpers import fixture_text
from kgmas.acl import AclMessage, Bus, Performative
from kgmas.agents import (
    GenericAgent,
    KgAgent,
    emit_specs,
    generate_agents,
    instantiate,
    shutdown,
    spec_to_dict,
)
from kgmas.errors import DuplicateAgentError, GenerationError, UnknownSchemeError
from kgmas.protocol import (
    COMPLETED,
    FAILED,
    IN_PROGRESS,
    PENDING,
    load_protocol,
)
from kgmas.store import NamedGraphStore
from kgmas.terms import Literal, Triple
from kgmas.transports import Endpoint, default_registry
from kgmas.vocab import (
    AT_POSITION,
    DATA_GRAPH,
    HAS_CAPABILITY,
    HAS_REALM,
    HAS_STATUS,
    SETUP_GRAPH,
    kgmas,
)
from kgmas.world import WarehouseWorld


MINIMAL_ASSET = """\
kgmas:{name} kgmas:hasAssetKind kgmas:Camera .
kgmas:{name} kgmas:hasRealm kgmas:digital .
kgmas:{name} kgmas:hasProtocol "mqtt" .
kgmas:{name} kgmas:hasEndpoint "host:1883" .
kgmas:{name} kgmas:publishesOn kgmas:{name}Out .
kgmas:{name}Out kgmas:hasTopic "/{name}/out" .
kgmas:{name}Out kgmas:hasMessageKind kgmas:Frame .
kgmas:{name} kgmas:hasCapability kgmas:{name}Cap .
kgmas:{name} kgmas:hasCoordinationRole kgmas:{name}Role .
kgmas:Plant kgmas:aggregates kgmas:{name} .
"""


def setup_with(*names: str) -> NamedGraphStore:
    text = "@prefix kgmas: <http://kgmas.example/vocab#> .\n"
    text += "".join(MINIMAL_ASSET.format(name=n) for n in names)
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, text)
    return store


def test_generate_from_fixture(setup_store):
    blueprints = generate_agents(setup_store, SETUP_GRAPH)
    assert [b.agent_id for b in blueprints] == ["roboticarm", "turtlebot"]
    arm, bot = blueprints
    assert bot.asset_id == kgmas("Turtlebot")
    assert bot.binding.scheme == "ros+ws"
    assert arm.capabilities == (kgmas("GripperControl"),)


def test_generate_is_incremental_under_growth(setup_store):
    """Adding an asset adds one agent and reuses the others' blueprints."""
    before = {b.agent_id: b
              for b in generate_agents(setup_store, SETUP_GRAPH)}
    extra = fixture_text("fig3_setup_plus_one.ttl")
    grown = NamedGraphStore()
    grown.load_turtle(SETUP_GRAPH, extra)
    blueprints = generate_agents(grown, SETUP_GRAPH)
    assert [b.agent_id for b in blueprints] == ["roboticarm", "turtlebot",
                                                "turtlebot2"]
    for blueprint in blueprints[:2]:
        assert blueprint == before[blueprint.agent_id]


def test_generate_reports_validation_issues(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(kgmas("Turtlebot"), HAS_REALM,
                                           kgmas("physical")))
    with pytest.raises(GenerationError) as err:
        generate_agents(setup_store, SETUP_GRAPH)
    assert any(issue.rule == "realm" for issue in err.value.violations)


def agent_id_issues(err) -> list[str]:
    return [issue.message for issue in err.value.violations
            if issue.rule == "agent-id"]


def test_generate_rejects_reserved_agent_id():
    store = setup_with("Kg")
    with pytest.raises(GenerationError) as err:
        generate_agents(store, SETUP_GRAPH)
    assert ["reserved" in message for message in agent_id_issues(err)] == [True]


def test_generate_rejects_colliding_agent_ids():
    store = setup_with("Widget", "WIDGET")
    with pytest.raises(GenerationError) as err:
        generate_agents(store, SETUP_GRAPH)
    assert ["both map" in message for message in agent_id_issues(err)] == [True]


def test_spec_serialization_round_trip(setup_store, tmp_path):
    specs = generate_agents(setup_store, SETUP_GRAPH)
    paths = emit_specs(specs, tmp_path)
    assert [p.rsplit("/", 1)[1] for p in paths] == ["roboticarm.json",
                                                    "turtlebot.json"]
    for spec, path in zip(specs, paths):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data == spec_to_dict(spec)


# -- lifecycle ---------------------------------------------------------------


@pytest.fixture
def scene(setup_store, world):
    bus = Bus()
    registry = default_registry()
    specs = generate_agents(setup_store, SETUP_GRAPH)
    return bus, registry, setup_store, world, {s.agent_id: s for s in specs}


def test_instantiate_mirrors_initial_state(scene):
    bus, registry, store, world, specs = scene
    handle = instantiate(specs["turtlebot"], bus=bus, store=store,
                         data_graph=DATA_GRAPH, world=world, registry=registry)
    triples = store.triples(DATA_GRAPH)
    bot = kgmas("Turtlebot")
    assert Triple(bot, HAS_STATUS, Literal("idle")) in triples
    assert Triple(bot, HAS_REALM, kgmas("physical")) in triples
    assert Triple(bot, AT_POSITION, Literal("cell:0,0")) in triples
    assert handle.connection is not None  # the world has this device
    shutdown(handle, bus=bus, store=store, data_graph=DATA_GRAPH)


def test_instantiate_twice_is_rejected(scene):
    bus, registry, store, world, specs = scene
    handle = instantiate(specs["roboticarm"], bus=bus, store=store,
                         data_graph=DATA_GRAPH, world=world, registry=registry)
    with pytest.raises(DuplicateAgentError):
        instantiate(specs["roboticarm"], bus=bus, store=store,
                    data_graph=DATA_GRAPH, world=world, registry=registry)
    shutdown(handle, bus=bus, store=store, data_graph=DATA_GRAPH)


def on_scheme(blueprint, scheme):
    return dataclasses.replace(blueprint, binding=Endpoint(scheme, blueprint.binding.address))


def test_failed_instantiate_releases_the_bus_identity(scene):
    bus, registry, store, world, specs = scene
    with pytest.raises(UnknownSchemeError):
        instantiate(on_scheme(specs["turtlebot"], "carrier-pigeon"), bus=bus,
                    store=store, data_graph=DATA_GRAPH, world=world, registry=registry)
    # the id must be free again for a corrected attempt
    handle = instantiate(on_scheme(specs["turtlebot"], "mqtt"), bus=bus, store=store,
                         data_graph=DATA_GRAPH, world=world, registry=registry)
    shutdown(handle, bus=bus, store=store, data_graph=DATA_GRAPH)


def test_shutdown_is_idempotent(scene):
    bus, registry, store, world, specs = scene
    handle = instantiate(specs["turtlebot"], bus=bus, store=store,
                         data_graph=DATA_GRAPH, world=world, registry=registry)
    shutdown(handle, bus=bus, store=store, data_graph=DATA_GRAPH)
    assert Triple(kgmas("Turtlebot"), HAS_STATUS,
                  Literal("stopped")) in store.triples(DATA_GRAPH)
    revision = store.revision
    shutdown(handle, bus=bus, store=store, data_graph=DATA_GRAPH)
    assert store.revision == revision
    assert handle.state == "stopped"


# -- mediator behavior -------------------------------------------------------


def test_task_ids_count_up_store_wide(setup_store):
    bus = Bus()
    kg = KgAgent(bus, setup_store, DATA_GRAPH)
    protocol = load_protocol(setup_store, SETUP_GRAPH, task_name="move_pallet")
    first = kg.create_task(protocol, {"from": "P1", "to": "P2"})
    second = kg.create_task(protocol, {"from": "P2", "to": "P1"})
    assert first.task_id == "Task_move_pallet_1"
    assert second.task_id == "Task_move_pallet_2"
    assert first.conversation_id == "conv-Task_move_pallet_1"


def test_mediator_refuses_queries_about_unknown_tasks(setup_store):
    bus = Bus()
    kg = KgAgent(bus, setup_store, DATA_GRAPH)
    bus.register("asker")
    bus.send(AclMessage(Performative.REQUEST, "asker", "kg",
                        {"query": "next_action", "task": "nope"}, "c0",
                        reply_with="asker-1"))
    kg.activate()
    answer = bus.try_receive("asker")
    assert answer.performative is Performative.REFUSE
    assert answer.content == {"reason": "unknown_task"}
    assert answer.in_reply_to == "asker-1"


def test_generic_agent_stays_put_on_wait(setup_store):
    bus = Bus()
    bus.register("kg")
    bus.register("a")
    agent = GenericAgent("a", bus, None)
    bus.send(AclMessage(Performative.INFORM, "kg", "a", {"action": "wait"}, "c1"))
    agent.activate()
    assert len(bus.conversation_log("c1")) == 1 and bus.idle()  # nothing sent back
    assert not agent.performing


def test_generic_agent_runs_the_query_loop(setup_store):
    bus = Bus()
    bus.register("kg")
    bus.register("operator")
    bus.register("a")
    agent = GenericAgent("a", bus, None)
    bus.send(AclMessage(Performative.REQUEST, "operator", "a",
                        {"task": "t1", "from": "P1"}, "c1"))
    agent.activate()
    query = bus.try_receive("kg")
    assert query.content == {"query": "next_action", "task": "t1"}
    assert query.reply_with == "a-1"

    bus.send(AclMessage(Performative.INFORM, "kg", "a", {"action": "done"}, "c1"))
    agent.activate()
    assert len(bus.conversation_log("c1")) == 3
    # with the task cleared a confirm no longer triggers a new query
    bus.send(AclMessage(Performative.CONFIRM, "kg", "a", {"event": "x"}, "c1"))
    agent.activate()
    assert len(bus.conversation_log("c1")) == 1


def test_generic_agent_keeps_task_memory_per_conversation():
    """``done`` in one conversation clears nothing in another, and an
    instruction to forward a request forwards that conversation's request."""
    bus = Bus()
    for agent_id in ("kg", "operator", "a", "b"):
        bus.register(agent_id)
    agent = GenericAgent("a", bus, None)
    bus.send(AclMessage(Performative.REQUEST, "operator", "a",
                        {"task": "t1", "from": "P1"}, "A"))
    bus.send(AclMessage(Performative.INFORM, "kg", "a",
                        {"action": "send_request", "to": "b"}, "A"))
    bus.send(AclMessage(Performative.INFORM, "kg", "a", {"action": "done"}, "B"))
    bus.send(AclMessage(Performative.CONFIRM, "kg", "a", {"event": "x"}, "A"))
    agent.activate()
    queries = [bus.try_receive("kg"), bus.try_receive("kg")]
    assert [(q.content, q.conversation_id) for q in queries] == [
        ({"query": "next_action", "task": "t1"}, "A")] * 2
    assert bus.try_receive("kg") is None
    forwarded = bus.try_receive("b")
    assert (forwarded.content, forwarded.conversation_id) == ({"task": "t1", "from": "P1"}, "A")


def test_generic_agent_without_device_fails_perform(setup_store):
    bus = Bus()
    bus.register("kg")
    bus.register("a")
    agent = GenericAgent("a", bus, None)
    bus.send(AclMessage(Performative.INFORM, "kg", "a",
                        {"action": "perform", "capability": "MotionControl",
                         "params": {}}, "c1"))
    agent.activate()
    failure = bus.try_receive("kg")
    assert failure.performative is Performative.FAILURE
    assert failure.content["error"] == "no_device"


class _RecordingChannel:
    """A device channel that takes every command and never reports back."""

    def __init__(self):
        self.commands = []

    def send_command(self, command):
        self.commands.append(command)

    def latest_observation(self):
        return None


@pytest.mark.parametrize("performative", [Performative.FAILURE, Performative.REFUSE])
def test_generic_agent_drops_its_command_when_the_mediator_says_no(performative):
    """Only the mediator, and only in the command's conversation, ends the
    command in flight."""
    bus = Bus()
    for agent_id in ("kg", "a", "stranger"):
        bus.register(agent_id)
    channel = _RecordingChannel()
    agent = GenericAgent("a", bus, channel)
    bus.send(AclMessage(Performative.INFORM, "kg", "a",
                        {"action": "perform", "capability": "MotionControl",
                         "params": {"to": "P2"}, "report": "moved"}, "c1"))
    agent.activate()
    assert channel.commands == [{"op": "invoke", "capability": "MotionControl",
                                 "params": {"to": "P2"}, "id": 1}]
    for sender, conversation in (("stranger", "c1"), ("kg", "c2"), ("kg", "c1")):
        assert agent.performing == {"id": 1, "report": "moved", "conversation": "c1"}
        bus.send(AclMessage(performative, sender, "a", {"reason": "x"}, conversation))
        agent.activate()
    assert agent.performing is None


# -- the mediator's answers, one message at a time ----------------------------

MOVE = "move_pallet"
BOT_PERFORM = {"action": "perform", "capability": "MotionControl",
               "params": {"from": "P1", "to": "cell:3,2"},
               "report": "pallet_delivered"}
ARM_PERFORM = {"action": "perform", "capability": "GripperControl",
               "params": {"from": "P1", "to": "P2"}, "report": "pallet_placed"}

TASK_PARAMS = {"from": "P1", "to": "P2"}

# (name, task index and status before, sender, performative, content,
#  expected replies as (receiver, performative, content, in_reply_to),
#  task index and status after[, task params if not TASK_PARAMS])
MEDIATOR_ANSWERS = [
    ("next_action", (1, PENDING), "turtlebot", Performative.REQUEST,
     {"query": "next_action", "task": MOVE},
     [("turtlebot", Performative.INFORM,
       {"action": "send_request", "to": "roboticarm", "task": MOVE}, "q-1")],
     (2, IN_PROGRESS)),
    ("handle_request_accepted", (2, IN_PROGRESS), "roboticarm",
     Performative.REQUEST,
     {"query": "handle_request", "task": MOVE, "from": "turtlebot"},
     [("roboticarm", Performative.INFORM, ARM_PERFORM, "q-1"),
      ("turtlebot", Performative.INFORM, BOT_PERFORM, None)],
     (3, IN_PROGRESS)),
    ("handle_request_task_mismatch", (2, IN_PROGRESS), "roboticarm",
     Performative.REQUEST,
     {"query": "handle_request", "task": "other", "from": "turtlebot"},
     [("roboticarm", Performative.REFUSE, {"reason": "task_mismatch"}, "q-1")],
     (2, IN_PROGRESS)),
    ("unsupported_query", (1, PENDING), "turtlebot", Performative.REQUEST,
     {"query": "weather", "task": MOVE},
     [("turtlebot", Performative.REFUSE, {"reason": "unsupported"}, "q-1")],
     (1, PENDING)),
    ("unknown_role_query", (1, PENDING), "stranger", Performative.REQUEST,
     {"query": "next_action", "task": MOVE},
     [("stranger", Performative.REFUSE, {"reason": "unknown_role"}, "q-1")],
     (1, PENDING)),
    ("unknown_role_event", (3, IN_PROGRESS), "stranger", Performative.INFORM,
     {"event": "pallet_delivered", "task": MOVE},
     [("stranger", Performative.REFUSE, {"reason": "unknown_role"}, None)],
     (3, IN_PROGRESS)),
    ("event_accepted", (3, IN_PROGRESS), "turtlebot", Performative.INFORM,
     {"event": "pallet_delivered", "task": MOVE},
     [("turtlebot", Performative.CONFIRM, {"event": "pallet_delivered"}, None),
      ("roboticarm", Performative.INFORM, ARM_PERFORM, None)],
     (5, IN_PROGRESS)),
    ("event_rejected", (1, PENDING), "turtlebot", Performative.INFORM,
     {"event": "pallet_delivered", "task": MOVE},
     [("turtlebot", Performative.REFUSE,
       {"reason": "event_rejected",
        "detail": "event 'pallet_delivered' from this role does not match step 1"},
       None)],
     (1, PENDING)),
    ("failure_on_open_task", (3, IN_PROGRESS), "turtlebot", Performative.FAILURE,
     {"error": "device busy", "task": MOVE}, [], (3, FAILED)),
    ("failure_on_finished_task", (8, COMPLETED), "turtlebot",
     Performative.FAILURE, {"error": "device busy", "task": MOVE}, [],
     (8, COMPLETED)),
    ("failure_from_unknown_role", (1, IN_PROGRESS), "stranger",
     Performative.FAILURE, {"error": "device busy", "task": MOVE},
     [("stranger", Performative.REFUSE, {"reason": "unknown_role"}, None)],
     (1, IN_PROGRESS)),
    ("handle_request_on_failed_task", (3, FAILED), "roboticarm",
     Performative.REQUEST,
     {"query": "handle_request", "task": MOVE, "from": "turtlebot"},
     [("roboticarm", Performative.INFORM, {"action": "done"}, "q-1")],
     (3, FAILED)),
    ("handle_request_params_from_template", (2, IN_PROGRESS), "roboticarm",
     Performative.REQUEST,
     {"query": "handle_request", "task": MOVE, "from": "turtlebot"},
     [("roboticarm", Performative.INFORM, ARM_PERFORM, "q-1"),
      ("turtlebot", Performative.INFORM, BOT_PERFORM, None)],
     (3, IN_PROGRESS), {"from": "P1", "to": "P2", "extra": "x"}),
]


@pytest.mark.parametrize(
    "before, sender, performative, content, replies, after, params",
    [(*row[1:7], row[7] if len(row) > 7 else TASK_PARAMS)
     for row in MEDIATOR_ANSWERS], ids=[row[0] for row in MEDIATOR_ANSWERS])
def test_mediator_answers_one_message(setup_store, before, sender, performative,
                                      content, replies, after, params):
    bus = Bus()
    kg = KgAgent(bus, setup_store, DATA_GRAPH)
    for agent_id in ("turtlebot", "roboticarm", "stranger"):
        bus.register(agent_id)
    protocol = load_protocol(setup_store, SETUP_GRAPH, task_name=MOVE)
    task = kg.create_task(protocol, params)
    task.index, task.status = before
    conversation = f"conv-{task.task_id}"
    bus.send(AclMessage(performative, sender, "kg", content, conversation,
                        reply_with="q-1"))
    kg.activate()
    sent = [message for _, message in bus.conversation_log(conversation)[1:]]
    assert [(m.receiver, m.performative, m.content, m.in_reply_to)
            for m in sent] == replies
    assert all(m.sender == "kg" for m in sent)
    delivered = [m for agent_id in ("turtlebot", "roboticarm", "stranger")
                 for m in iter(lambda: bus.try_receive(agent_id), None)]
    assert len(delivered) == len(sent)  # nothing went to another conversation
    assert (task.index, task.status) == after


# -- routing by conversation ---------------------------------------------------


@pytest.fixture
def two_moves(setup_store):
    """A mediator with two open ``move_pallet`` tasks and both asset ids."""
    bus = Bus()
    kg = KgAgent(bus, setup_store, DATA_GRAPH)
    for agent_id in ("turtlebot", "roboticarm"):
        bus.register(agent_id)
    protocol = load_protocol(setup_store, SETUP_GRAPH, task_name=MOVE)
    first = kg.create_task(protocol, {"from": "P1", "to": "P2"})
    second = kg.create_task(protocol, {"from": "P2", "to": "P1"})
    return bus, kg, first, second


def test_query_moves_the_task_of_its_conversation(two_moves):
    bus, kg, first, second = two_moves
    bus.send(AclMessage(Performative.REQUEST, "turtlebot", "kg",
                        {"query": "next_action", "task": MOVE},
                        "conv-Task_move_pallet_1", reply_with="q-1"))
    kg.activate()
    answer = bus.try_receive("turtlebot")
    assert answer.content["action"] == "send_request"
    assert answer.conversation_id == "conv-Task_move_pallet_1"
    assert (first.index, first.status) == (2, IN_PROGRESS)
    assert (second.index, second.status) == (1, PENDING)


def test_stale_event_on_a_failed_task_moves_no_other_task(two_moves):
    bus, kg, first, second = two_moves
    kg.fail(first)
    second.index, second.status = 3, IN_PROGRESS
    bus.send(AclMessage(Performative.INFORM, "turtlebot", "kg",
                        {"event": "pallet_delivered", "task": MOVE},
                        "conv-Task_move_pallet_1"))
    kg.activate()
    answer = bus.try_receive("turtlebot")
    assert answer.performative is Performative.REFUSE
    assert answer.content == {"reason": "event_rejected", "detail": "task is failed"}
    assert (second.index, second.status) == (3, IN_PROGRESS)
    assert bus.try_receive("roboticarm") is None


def test_query_outside_every_task_conversation_is_refused(setup_store):
    bus = Bus()
    kg = KgAgent(bus, setup_store, DATA_GRAPH)
    bus.register("turtlebot")
    protocol = load_protocol(setup_store, SETUP_GRAPH, task_name=MOVE)
    task = kg.create_task(protocol, {"from": "P1", "to": "P2"})
    bus.send(AclMessage(Performative.REQUEST, "turtlebot", "kg",
                        {"query": "next_action", "task": MOVE},
                        "conv-elsewhere", reply_with="q-1"))
    kg.activate()
    answer = bus.try_receive("turtlebot")
    assert answer.performative is Performative.REFUSE
    assert answer.content == {"reason": "unknown_task"}
    assert answer.in_reply_to == "q-1"
    assert (task.index, task.status) == (1, PENDING)


def test_a_query_unread_when_its_conversation_ends_gets_no_answer(setup_store):
    """The bus forgot the ``reply_with`` an answer would name, so the
    mediator drops its refusal instead of raising."""
    bus = Bus()
    kg = KgAgent(bus, setup_store, DATA_GRAPH)
    bus.register("turtlebot")
    task = kg.create_task(load_protocol(setup_store, SETUP_GRAPH, task_name=MOVE),
                          TASK_PARAMS)
    bus.send(AclMessage(Performative.REQUEST, "turtlebot", "kg",
                        {"query": "next_action", "task": MOVE},
                        task.conversation_id, reply_with="q-1"))
    assert len(bus.conversation_log(task.conversation_id)) == 1
    kg.end_conversation(task.conversation_id)
    kg.activate()
    assert bus.idle()
    assert bus.conversation_log(task.conversation_id) == []


def test_failure_outside_every_task_conversation_is_refused(setup_store):
    bus = Bus()
    kg = KgAgent(bus, setup_store, DATA_GRAPH)
    bus.register("turtlebot")
    protocol = load_protocol(setup_store, SETUP_GRAPH, task_name=MOVE)
    task = kg.create_task(protocol, {"from": "P1", "to": "P2"})
    task.index, task.status = 3, IN_PROGRESS
    bus.send(AclMessage(Performative.FAILURE, "turtlebot", "kg",
                        {"error": "device busy", "task": MOVE}, "conv-elsewhere"))
    kg.activate()
    answer = bus.try_receive("turtlebot")
    assert answer.performative is Performative.REFUSE
    assert answer.content == {"reason": "unknown_task"}
    assert (task.index, task.status) == (3, IN_PROGRESS)
