"""End-to-end scenario runs against the warehouse fixture."""

from __future__ import annotations

import copy
import json
import random
import re
import types
from pathlib import Path

import pytest

from helpers import (
    fixture_path,
    fixture_text,
    graph_facts,
    protocol_step_triples,
    put_pallet_back,
    random_asset_block,
    random_protocol_steps,
    setup_with_broken_protocol,
    setup_without_steps,
    world_state_facts,
)
from kgmas import runtime
from kgmas.acl import AclMessage, Performative, canonical_json, format_trace
from kgmas.agents import GenericAgent, KgAgent
from kgmas.connection import PICK_POSTURE
from kgmas.errors import ProtocolError, ValidationError
from kgmas.protocol import derive_trace_skeleton, load_protocol
from kgmas.runtime import DEFAULT_DEADLINE_MS, TICK_MS, Scenario
from kgmas.store import NamedGraphStore
from kgmas.terms import Literal, Triple
from kgmas.vocab import (
    AT_POSITION,
    AT_TICK,
    DATA_GRAPH,
    HAS_GRIPPER_STATE,
    HAS_JOINT_STATES,
    HAS_STATUS,
    KG_AGENT_ID,
    KIND_PERFORM_ACTION,
    KIND_QUERY_NEXT,
    KIND_REPORT_EVENT,
    OPERATOR_ID,
    SETUP_GRAPH,
    TASK_STATUS,
    XSD_INTEGER,
    kgmas,
)
from kgmas.world import WarehouseWorld

GOLDEN_TRACE = Path(__file__).resolve().parent.parent / "bench" / "golden" / "trace.log"
SETUP = fixture_path("fig3_setup.ttl")
WORLD = fixture_path("warehouse_world.json")
PARAMS = {"from": "P1", "to": "P2"}


def fresh(**kwargs) -> Scenario:
    return Scenario.from_files(SETUP, WORLD, **kwargs)


@pytest.mark.parametrize("bad", ["setup", "world"])
def test_from_files_names_a_file_that_is_not_utf8(tmp_path, bad):
    path = tmp_path / "latin"
    path.write_bytes(b"\xff\xfe")
    paths = {"setup": SETUP, "world": WORLD, bad: path}
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
        Scenario.from_files(paths["setup"], paths["world"])


def run_once(**kwargs):
    with fresh(**kwargs) as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
        dump = scenario.store.dump_turtle(DATA_GRAPH)
    return result, dump


def test_fixture_task_completes():
    with fresh() as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
        protocol = load_protocol(scenario.store, SETUP_GRAPH, "move_pallet")
        assert result.status == "completed"
        assert result.stalled_step is None
        assert result.conversation_id == "conv-Task_move_pallet_1"
        assert result.skeleton() == derive_trace_skeleton(protocol)
        assert scenario.world.pallet_positions() == {"Pallet1": "P2"}
        triples = scenario.store.triples(DATA_GRAPH)
        assert Triple(kgmas("Pallet1"), AT_POSITION, Literal("P2")) in triples
        assert all(count == 0 for count in result.violations_per_tick)


def test_events_recorded_at_their_ticks():
    """Delivery lands on tick 11 and placement on tick 19 for this fixture."""
    with fresh() as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
        assert result.ticks == 21
        triples = scenario.store.triples(DATA_GRAPH)
        assert Triple(kgmas("Task_move_pallet_1_event_4"), AT_TICK,
                      Literal("11", XSD_INTEGER)) in triples
        assert Triple(kgmas("Task_move_pallet_1_event_6"), AT_TICK,
                      Literal("19", XSD_INTEGER)) in triples


def test_mirror_tracks_world_every_tick():
    """After every tick the data graph agrees with the simulation."""
    with fresh() as scenario:
        assets = {agent_id: handle.blueprint.asset_id
                  for agent_id, handle in scenario.handles.items()}

        def position_in_graph(subject):
            values = [t.object.lexical
                      for t in scenario.store.triples(DATA_GRAPH)
                      if t.subject == subject and t.predicate == AT_POSITION]
            assert len(values) == 1, subject
            return values[0]

        checked = {"ticks": 0}

        def check(s: Scenario):
            checked["ticks"] += 1
            for pallet_id, position in s.world.pallet_positions().items():
                assert position_in_graph(kgmas(pallet_id)) == position
            for agent_id, asset in assets.items():
                cell = s.world.devices[agent_id].cell
                assert position_in_graph(asset) == s.world.position_literal(cell)

        result = scenario.run_task("move_pallet", PARAMS, on_tick=check)
        assert result.status == "completed"
        assert checked["ticks"] == result.ticks


def assert_mirror_matches_world(scenario: Scenario) -> None:
    """The data graph says exactly what the world holds, fact for fact."""
    connected = {agent_id: handle for agent_id, handle in scenario.handles.items()
                 if handle.connection is not None}
    assets = {agent_id: handle.blueprint.asset_id
              for agent_id, handle in connected.items()}
    expected = world_state_facts(scenario.world, assets)
    found = graph_facts(scenario.store.triples(DATA_GRAPH), expected)
    assert found == expected, f"tick {scenario.world.tick}"


def world_without_arm() -> WarehouseWorld:
    doc = json.loads(fixture_text("warehouse_world.json"))
    del doc["devices"]["roboticarm"]
    return WarehouseWorld.from_fixture(doc)


def world_with_arm_in_pick_posture() -> WarehouseWorld:
    """The arm's first command moves nothing, so only its status changes."""
    doc = json.loads(fixture_text("warehouse_world.json"))
    doc["devices"]["roboticarm"]["joints"] = list(PICK_POSTURE)
    return WarehouseWorld.from_fixture(doc)


@pytest.mark.parametrize("params, world, outcome", [
    (PARAMS, None, ("completed", None)),
    ({"from": "P9", "to": "P2"}, None, ("failed", 3)),
    (PARAMS, world_without_arm, ("failed", 5)),
    (PARAMS, world_with_arm_in_pick_posture, ("completed", None)),
], ids=["fixture", "bad_cell", "absent_arm", "arm_in_pick_posture"])
def test_mirror_equals_world_after_every_tick(params, world, outcome):
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, fixture_text("fig3_setup.ttl"))
    world = world() if world else WarehouseWorld.from_file(WORLD)
    checked = []

    def check(s: Scenario):
        assert_mirror_matches_world(s)
        checked.append(s.world.tick)

    with Scenario(store, world) as scenario:
        result = scenario.run_task("move_pallet", params, on_tick=check)
    assert (result.status, result.stalled_step) == outcome
    assert len(checked) == result.ticks > 0


def test_an_idle_tick_writes_nothing():
    """Once the task is done and the bus drained, a tick changes no fact."""
    with fresh() as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
        assert result.status == "completed" and scenario.bus.idle()
        revision = scenario.store.revision
        scenario.iterate()
        assert scenario.store.revision == revision
        assert_mirror_matches_world(scenario)


def test_a_new_scenario_holds_every_device_in_full():
    """A connection writes its device's whole state when it opens."""
    with fresh() as scenario:
        assert scenario.world.tick == 0
        assert_mirror_matches_world(scenario)
        triples = scenario.store.triples(DATA_GRAPH)

        def predicates(asset):
            return {t.predicate for t in triples if t.subject == asset}

        mobile = {HAS_STATUS, AT_POSITION}
        assert predicates(kgmas("Turtlebot")) >= mobile
        assert predicates(kgmas("RoboticArm")) >= (
            mobile | {HAS_JOINT_STATES, HAS_GRIPPER_STATE})


def test_first_tick_writes_no_device_facts(monkeypatch):
    """What the connections wrote at open still holds after an idle tick."""
    with fresh() as scenario:
        writes = []
        replace = scenario.store.replace

        def spy(graph_id, subject, facts):
            writes.append(subject)
            return replace(graph_id, subject, facts)

        monkeypatch.setattr(scenario.store, "replace", spy)
        scenario.iterate()
        assert kgmas("Turtlebot") not in writes
        assert kgmas("RoboticArm") not in writes
        assert_mirror_matches_world(scenario)


def test_zero_deadline_fails_without_progress():
    with fresh(deadline_ms=0) as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
    assert (result.status, result.stalled_step) == ("failed", 1)
    assert scenario.world.pallet_positions() == {"Pallet1": "P1"}


def test_the_deadline_fails_the_task_through_the_mediator(monkeypatch):
    """The run loop fails a stalled task by asking the mediator, which
    writes the failed status into the data graph."""
    failed = []
    fail = KgAgent.fail

    def recording(kg, task):
        failed.append((task.task_id, task.index, task.status))
        fail(kg, task)

    monkeypatch.setattr(KgAgent, "fail", recording)
    with fresh(deadline_ms=0) as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
        triples = scenario.store.triples(DATA_GRAPH)
    assert failed == [("Task_move_pallet_1", 1, "pending")]
    assert result.status == "failed"
    assert Triple(result.task.iri, TASK_STATUS, Literal("failed")) in triples


def test_missing_peer_stalls_at_the_request_step():
    """Without the placer the mover's request goes nowhere and times out."""
    with fresh(instantiate_only={"turtlebot"}, deadline_ms=500) as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
    assert (result.status, result.stalled_step) == ("failed", 2)


@pytest.mark.parametrize("performative,sender,conversation", [
    (Performative.REFUSE, "stranger", "conv-nowhere"),
    (Performative.FAILURE, "stranger", "conv-Task_move_pallet_1"),
    (Performative.REFUSE, "kg", "conv-nowhere"),
])
def test_stray_refuse_keeps_the_command_in_flight(performative, sender,
                                                  conversation):
    """Only the mediator, in the command's conversation, cancels a command."""
    def stray(scenario: Scenario):
        if scenario.world.tick == 4:
            scenario.bus.send(AclMessage(performative, sender, "turtlebot",
                                         {"reason": "x"}, conversation))

    with fresh() as scenario:
        if sender == "stranger":
            scenario.bus.register(sender)
        result = scenario.run_task("move_pallet", PARAMS, on_tick=stray)
        protocol = load_protocol(scenario.store, SETUP_GRAPH, "move_pallet")
    assert (result.status, result.ticks) == ("completed", 21)
    stray_entry = (performative.value, sender, "turtlebot")
    skeleton = [entry for entry in result.skeleton() if entry != stray_entry]
    assert skeleton == derive_trace_skeleton(protocol)


def test_a_reply_to_the_operator_does_not_keep_the_task_ticking():
    """The mediator's answer to a stray operator request is drained, so the
    run ends when the task does and leaves an idle bus."""
    def stray(scenario: Scenario):
        if scenario.world.tick == 3:
            scenario.bus.send(AclMessage(Performative.REQUEST, OPERATOR_ID, KG_AGENT_ID,
                                         {"query": "next_action"},
                                         "conv-Task_move_pallet_1"))

    with fresh() as scenario:
        result = scenario.run_task("move_pallet", PARAMS, on_tick=stray)
        assert (result.status, result.ticks) == ("completed", 21)
        assert scenario.bus.idle()


def test_mail_nobody_reads_ends_the_run_at_the_tick_cap():
    """An inbox that nothing drains keeps the bus busy after the task has
    completed. The run stops at the tick cap instead of hanging, and the
    task's own conversation is still the golden trace, numbered one later
    because the unread message was sent first."""
    with fresh() as scenario:
        scenario.bus.register("observer")
        scenario.bus.send(AclMessage(Performative.INFORM, OPERATOR_ID, "observer",
                                     {"note": "unread"}, "conv-elsewhere"))
        result = scenario.run_task("move_pallet", PARAMS)
        steps = load_protocol(scenario.store, SETUP_GRAPH, "move_pallet").steps
    deadline_ticks = DEFAULT_DEADLINE_MS // TICK_MS
    assert result.status == "completed"
    assert result.ticks == (deadline_ticks + 1) * (len(steps) + 2) + 100 == 289
    shifted = [(seq - 1, message) for seq, message in result.trace]
    assert format_trace(shifted) == GOLDEN_TRACE.read_text(encoding="utf-8")


def test_a_perform_pushed_without_a_peer_request_still_asks_what_next():
    """With step 2 a ``queryNext`` (and no target role), the mediator pushes
    the arm's perform without a peer request. Once its report is confirmed
    the arm still asks ``next_action`` in that conversation, as the oracle
    expects."""
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, fixture_text("fig3_setup.ttl").replace(
        "kgmas:MovePalletStep2 kgmas:actionKind kgmas:sendRequest",
        "kgmas:MovePalletStep2 kgmas:actionKind kgmas:queryNext").replace(
        "kgmas:MovePalletStep2 kgmas:targetRole kgmas:PlacerRole .\n", ""))
    with Scenario(store, WarehouseWorld.from_file(WORLD)) as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
        protocol = load_protocol(store, SETUP_GRAPH, "move_pallet")
        assert result.status == "completed"
        assert scenario.world.pallet_positions() == {"Pallet1": "P2"}
    assert result.skeleton() == derive_trace_skeleton(protocol)


def test_a_step_that_becomes_current_on_a_wait_answer_is_pushed():
    """The placer queries first and is told to wait; the mover's perform,
    now current, is pushed to it, and the oracle predicts that push."""
    store = NamedGraphStore()
    store.atomic_update(SETUP_GRAPH, [], setup_without_steps() + protocol_step_triples([
        (KIND_QUERY_NEXT, kgmas("PlacerRole"), None, None),
        (KIND_PERFORM_ACTION, kgmas("MoverRole"), None, None),
        (KIND_REPORT_EVENT, kgmas("MoverRole"), None, '{"event":"pallet_delivered"}'),
    ]))
    protocol = load_protocol(store, SETUP_GRAPH, "move_pallet")
    with Scenario(store, WarehouseWorld.from_file(WORLD)) as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
    assert (result.status, result.ticks, len(result.trace)) == ("completed", 12, 8)
    assert result.skeleton() == derive_trace_skeleton(protocol)


def test_random_protocols_load_refused_or_run_as_the_oracle_predicts():
    """500 seeded protocols that load, of 1-7 steps over the fixture's roles:
    each run ends completed or failed, and each completed run sends the
    messages ``derive_trace_skeleton`` predicts."""
    rng = random.Random(11)
    setup = setup_without_steps()
    world = json.loads(fixture_text("warehouse_world.json"))
    statuses = {"refused": 0, "completed": 0, "failed": 0}
    disagreeing = []
    while statuses["completed"] + statuses["failed"] < 500:
        store = NamedGraphStore()
        store.atomic_update(SETUP_GRAPH, [], setup + random_protocol_steps(rng))
        try:
            protocol = load_protocol(store, SETUP_GRAPH, "move_pallet")
        except ProtocolError:
            statuses["refused"] += 1
            continue
        with Scenario(store, WarehouseWorld.from_fixture(world)) as scenario:
            result = scenario.run_task("move_pallet", PARAMS)
        statuses[result.status] += 1
        if (result.status == "completed"
                and result.skeleton() != derive_trace_skeleton(protocol)):
            disagreeing.append([(s.kind, s.role.local_name) for s in protocol.steps])
    assert not disagreeing, disagreeing[:3]
    assert min(statuses.values()) > 0, statuses


def test_tasks_on_one_scenario_each_trace_their_own_conversation():
    """Thirty tasks in a row on one scenario: each completes with no
    violation, and its trace is its own conversation's messages: every
    message sent during its run, in a run of sequence numbers."""
    sent = 0
    with fresh() as scenario:
        protocol = load_protocol(scenario.store, SETUP_GRAPH, "move_pallet")
        expected = derive_trace_skeleton(protocol)
        for number in range(1, 31):
            if number > 1:
                put_pallet_back(scenario.world)
            result = scenario.run_task("move_pallet", PARAMS)
            assert (result.status, result.conversation_id) == (
                "completed", f"conv-Task_move_pallet_{number}")
            assert not any(result.violations_per_tick)
            seqs = [seq for seq, _ in result.trace]
            assert seqs == list(range(sent + 1, sent + 1 + len(seqs)))
            assert {m.conversation_id for _, m in result.trace} == {result.conversation_id}
            sent = seqs[-1]
            assert result.skeleton() == expected
            assert scenario.world.pallet_positions() == {"Pallet1": "P2"}


def held_entries(scenario: Scenario) -> dict[str, int]:
    """Conversation records on the bus, mediator tasks and each asset
    agent's task memory."""
    return {"bus": len(scenario.bus._conversations), "kg": len(scenario.kg._tasks),
            **{agent_id: len(handle.agent._tasks)
               for agent_id, handle in scenario.handles.items()}}


@pytest.mark.parametrize("params, tasks, status", [
    (PARAMS, 10, "completed"),
    ({"from": "P1"}, 1, "failed"),  # the arm fails while the turtlebot still drives
], ids=["completed", "failed_mid_command"])
def test_finished_tasks_leave_no_conversation_behind(params, tasks, status):
    """After the tasks on one scenario, and forty ticks more, nothing holds
    an entry for a finished conversation: not the bus, the mediator or any
    asset agent, which stops waiting on a command of an ended task."""
    with fresh() as scenario:
        for number in range(tasks):
            if number:
                put_pallet_back(scenario.world)
            assert scenario.run_task("move_pallet", params).status == status
        for _ in range(40):
            scenario.iterate()
        assert held_entries(scenario) == {"bus": 0, "kg": 0, "roboticarm": 0,
                                          "turtlebot": 0}
        assert all(handle.agent.performing is None
                   for handle in scenario.handles.values())


def test_refused_sends_leave_no_conversation_behind():
    """A send the bus refuses opens no record for its conversation."""
    with fresh() as scenario:
        for number in range(3):
            with pytest.raises(ValidationError, match="in_reply_to"):
                scenario.bus.send(AclMessage(Performative.INFORM, "turtlebot", KG_AGENT_ID,
                                             {}, f"conv-unseen-{number}", f"q-{number}",
                                             "nope"))
        assert held_entries(scenario)["bus"] == 0


def test_a_message_in_an_ended_conversation_is_refused_unknown_task():
    with fresh() as scenario:
        result = scenario.run_task("move_pallet", PARAMS)
        scenario.bus.send(AclMessage(Performative.REQUEST, "turtlebot", KG_AGENT_ID,
                                     {"query": "next_action", "task": "move_pallet"},
                                     result.conversation_id, reply_with="late-1"))
        scenario.kg.activate()
        answer = scenario.bus.try_receive("turtlebot")
    assert (answer.performative, answer.content, answer.in_reply_to) == (
        Performative.REFUSE, {"reason": "unknown_task"}, "late-1")
    assert answer.conversation_id == result.conversation_id
    assert result.task.status == "completed"


def test_protocols_load_once_at_set_up(monkeypatch):
    """``load_protocol`` runs once per task name while the scenario is built,
    broken protocol included, and never in ``run_task``; five tasks share
    one protocol and leave it, templates included, as it was."""
    calls = []
    load = runtime.load_protocol

    def counting(store, graph_id, task_name):
        calls.append(task_name)
        return load(store, graph_id, task_name)

    monkeypatch.setattr(runtime, "load_protocol", counting)
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, setup_with_broken_protocol())
    with Scenario(store, WarehouseWorld.from_file(WORLD)) as scenario:
        assert calls == ["move_pallet", "stack_pallet"]
        protocol = scenario.protocols["move_pallet"]
        pristine = copy.deepcopy(protocol)
        for number in range(5):
            if number:
                put_pallet_back(scenario.world)
            result = scenario.run_task("move_pallet", PARAMS)
            assert result.status == "completed" and result.task.protocol is protocol
    assert calls == ["move_pallet", "stack_pallet"]
    assert protocol == pristine


def test_transport_choice_does_not_change_the_outcome():
    baseline, base_dump = run_once()
    swapped, swap_dump = run_once(transport_overrides={
        "turtlebot": "mqtt", "roboticarm": "rest+http"})
    assert format_trace(swapped.trace) == format_trace(baseline.trace)
    assert swap_dump == base_dump


SCHEMES = ("ros+ws", "mqtt", "rest+http")


def run_failing(setup_text, world_doc, **kwargs):
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, setup_text)
    with Scenario(store, WarehouseWorld.from_fixture(world_doc),
                  deadline_ms=500, **kwargs) as scenario:
        return scenario.run_task("move_pallet", PARAMS)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_missing_device_fails_the_same_on_every_transport(scheme):
    """A command to an arm that is not in the world goes unanswered on any kind."""
    world_doc = json.loads(fixture_text("warehouse_world.json"))
    del world_doc["devices"]["roboticarm"]
    setup_text = fixture_text("fig3_setup.ttl")
    baseline = run_failing(setup_text, world_doc)
    result = run_failing(setup_text, world_doc,
                         transport_overrides={"roboticarm": scheme})
    assert (result.status, result.stalled_step) == ("failed", 3)
    assert format_trace(result.trace) == format_trace(baseline.trace)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_asset_without_command_channel_fails_its_perform_step(scheme):
    """An arm that subscribes to no topic cannot be told to act: step 3 fails."""
    setup_text = fixture_text("fig3_setup.ttl").replace(
        "kgmas:RoboticArm kgmas:subscribesTo kgmas:RoboticArmCommand .", "")
    world_doc = json.loads(fixture_text("warehouse_world.json"))
    result = run_failing(setup_text, world_doc,
                         transport_overrides={"roboticarm": scheme})
    assert (result.status, result.stalled_step) == ("failed", 3)
    failures = [m.content for _, m in result.trace
                if m.performative is Performative.FAILURE]
    assert failures == [{"error": "no command channel", "task": "move_pallet"}]


def test_a_command_the_world_fails_ends_its_invocation(monkeypatch):
    """A grip the world accepts but fails when it runs (its pallet is taken
    away in between) ends the invocation with ``grip failed``."""
    with fresh() as scenario:
        world = scenario.world
        apply = world.apply

        def take_the_pallet_after_a_grip(device_id, command):
            accepted = apply(device_id, command)
            if accepted and command.verb == "grip":
                put_pallet_back(world, station="P2")
            return accepted

        monkeypatch.setattr(world, "apply", take_the_pallet_after_a_grip)
        result = scenario.run_task("move_pallet", PARAMS)
    assert (result.status, result.stalled_step) == ("failed", 3)
    failures = [(m.sender, m.content["error"]) for _, m in result.trace
                if m.performative is Performative.FAILURE]
    assert failures == [("turtlebot", "grip failed")]
    assert world.devices["turtlebot"].holding is None


def test_an_off_grid_task_cell_is_refused_before_the_arm_grips():
    """The arm reads the task's cell when its command arrives, so it never
    lifts a pallet it could not set down."""
    gripped = []

    def watch(s: Scenario):
        gripped.append(s.world.devices["roboticarm"].holding)

    with fresh() as scenario:
        result = scenario.run_task("move_pallet", {"from": "P1", "to": "cell:99,0"},
                                   on_tick=watch)
    assert (result.status, result.stalled_step, result.ticks) == ("failed", 3, 6)
    assert gripped == [None] * 6
    failures = [(m.sender, m.content["error"]) for _, m in result.trace
                if m.performative is Performative.FAILURE]
    assert failures == [("roboticarm",
                         "a command needs a cell on the 6x4 grid, got 'cell:99,0'")]


def test_repeat_runs_are_byte_identical():
    first, first_dump = run_once()
    second, second_dump = run_once()
    assert format_trace(first.trace) == format_trace(second.trace)
    assert first_dump == second_dump
    assert first.ticks == second.ticks


def test_override_validation():
    store = NamedGraphStore()
    with open(SETUP, encoding="utf-8") as fh:
        store.load_turtle(SETUP_GRAPH, fh.read())
    with pytest.raises(ValidationError, match="unknown asset"):
        Scenario(store, WarehouseWorld.from_file(WORLD),
                 transport_overrides={"ghost": "mqtt"})
    with pytest.raises(ValidationError, match="unknown scheme"):
        Scenario(store, WarehouseWorld.from_file(WORLD),
                 transport_overrides={"turtlebot": "smoke-signal"})


def test_close_is_idempotent():
    scenario = fresh()
    scenario.run_task("move_pallet", PARAMS)
    scenario.close()
    revision = scenario.store.revision
    scenario.close()
    assert scenario.store.revision == revision
    assert all(h.state == "stopped" for h in scenario.handles.values())


# -- the wake rule ------------------------------------------------------------


def reference_iterate(scenario: Scenario) -> None:
    """One tick in which every asset agent takes its turn, in id order."""
    scenario.kg.activate()
    for handle in scenario.handles.values():
        handle.agent.activate()
    for handle in scenario.handles.values():
        if handle.connection is not None:
            handle.connection.dispatch()
    for observation in scenario.world.step():
        handle = scenario.handles.get(observation.device_id)
        if handle is not None and handle.connection is not None:
            handle.connection.observe(observation)
    scenario._publish_pallets()


def scenario_with_extras(rng: random.Random, extras: int,
                         mover: str = "Turtlebot", doc: dict | None = None,
                         **kwargs) -> Scenario:
    """The fixture plus ``extras`` idle assets, named to sort anywhere
    among the task's agents; ``mover`` renames the turtlebot.  ``doc`` is
    the world document, the fixture's by default, and ``kwargs`` go to the
    scenario."""
    setup = fixture_text("fig3_setup.ttl").replace("Turtlebot", mover)
    lines = []
    for index in range(extras):
        name = f"{rng.choice(('Aa', 'Mid', 'Sa', 'Zz'))}Extra{index}"
        lines += random_asset_block(rng, name)
        lines.append(f"kgmas:WarehouseSystem kgmas:aggregates kgmas:{name} .")
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, setup + "\n".join(lines) + "\n")
    doc = doc or json.loads(fixture_text("warehouse_world.json"))
    doc["devices"][mover.lower()] = doc["devices"].pop("turtlebot")
    return Scenario(store, WarehouseWorld.from_fixture(doc), **kwargs)


def run_with_strays(seed: int, extras: int, mover: str, reference: bool):
    """Run the fixture task while the operator sends stray messages to idle
    assets and to the mediator; returns everything a run leaves behind."""
    rng = random.Random(seed)
    scenario = scenario_with_extras(rng, extras, mover)
    if reference:
        scenario.iterate = types.MethodType(reference_iterate, scenario)
    targets = [KG_AGENT_ID] + [agent_id for agent_id in scenario.handles
                               if "extra" in agent_id]
    replies = []

    def stray(s: Scenario):
        while (reply := s.bus.try_receive(OPERATOR_ID)) is not None:
            replies.append(reply)
        for _ in range(rng.choice((0, 0, 1, 2))):
            performative = rng.choice(list(Performative))
            content = rng.choice(({"task": "move_pallet"}, {"event": "x"},
                                  {"query": "next_action", "task": "move_pallet"},
                                  {"reason": "stray"}))
            conversation = rng.choice(("conv-Task_move_pallet_1", "conv-stray"))
            s.bus.send(AclMessage(performative, OPERATOR_ID, rng.choice(targets),
                                  content, conversation))

    with scenario:
        result = scenario.run_task("move_pallet", PARAMS, on_tick=stray)
        return (result.status, result.ticks, result.violations_per_tick,
                format_trace(result.trace),
                format_trace(scenario.bus.conversation_log("conv-stray")),
                scenario.store.dump_turtle(DATA_GRAPH),
                format_trace(enumerate(replies)))


@pytest.mark.parametrize("mover", ["Turtlebot", "Alphabot"],
                         ids=["mover_after_placer", "mover_before_placer"])
@pytest.mark.parametrize("seed", range(6))
def test_waking_only_agents_with_work_changes_nothing(seed, mover):
    """Skipping agents without work leaves the trace, the data graph and the
    violations exactly as when every agent takes every turn.  With the mover
    sorted before the placer, its peer request wakes the placer on the tick
    it is sent."""
    extras = random.Random(seed).randint(0, 30)
    woken = run_with_strays(seed, extras, mover, reference=False)
    everyone = run_with_strays(seed, extras, mover, reference=True)
    assert woken == everyone
    assert woken[0] == "completed"


def test_idle_assets_take_no_turns(monkeypatch):
    """Agent turns on the fixture task do not grow with idle assets."""
    turns = {"count": 0}
    activate = GenericAgent.activate

    def counting(agent):
        turns["count"] += 1
        activate(agent)

    monkeypatch.setattr(GenericAgent, "activate", counting)
    counts = []
    for extras in (0, 100):
        turns["count"] = 0
        with scenario_with_extras(random.Random(5), extras) as scenario:
            result = scenario.run_task("move_pallet", PARAMS)
        assert (result.status, result.ticks) == ("completed", 21)
        counts.append(turns["count"])
    assert counts[0] == counts[1] > 0


# -- report by exception --------------------------------------------------------


def reference_observe(connection, observation) -> None:
    """Publish and mirror the device's whole state every tick, changed or not."""
    if connection.adapter.closed:
        return
    payload = dict(observation.payload)
    if connection._command_id is not None and not payload["busy"]:
        if payload["failed"] is not None:
            connection._fail(f"{payload['failed']} failed")
        else:
            connection._outcome["done_id"] = connection._command_id
            connection._command_id = None
    payload.update(connection._outcome, tick=observation.tick,
                   device=observation.device_id)
    for topic in connection.blueprint.observation_topics:
        connection.adapter.publish(topic, canonical_json(payload))
    asset = connection.blueprint.asset_id
    facts = world_state_facts(connection.world, {connection.asset_id: asset})
    connection.store.replace(DATA_GRAPH, asset, {
        predicate: objects for (subject, predicate), objects in facts.items()
        if subject == asset})


def use_reference_connections(scenario: Scenario) -> None:
    for handle in scenario.handles.values():
        if handle.connection is not None:
            handle.connection.observe = types.MethodType(reference_observe,
                                                         handle.connection)


def without_tick(observation: dict | None) -> dict | None:
    if observation is None:
        return None
    return {key: value for key, value in observation.items() if key != "tick"}


REPORT_CASES = ("fixture", "idle_extras", *SCHEMES,
                "bad_params", "missing_device", "zero_deadline")


def run_reporting(case: str, seed: int, reference: bool):
    """Run one seeded case; returns the outcome and, per tick, the data graph
    and what every agent last heard from its device."""
    rng = random.Random(seed)
    extras = 0 if case == "fixture" else rng.randint(1, 20)
    doc = json.loads(fixture_text("warehouse_world.json"))
    params, kwargs = PARAMS, {}
    if case in SCHEMES:
        kwargs["transport_overrides"] = {"turtlebot": case, "roboticarm": case}
    elif case == "bad_params":
        params = {"from": "P9", "to": "P2"}
    elif case == "missing_device":
        del doc["devices"]["roboticarm"]
    elif case == "zero_deadline":
        kwargs["deadline_ms"] = 0
    scenario = scenario_with_extras(rng, extras, doc=doc, **kwargs)
    if reference:
        use_reference_connections(scenario)
    seen = []

    def snapshot(s: Scenario):
        heard = {agent_id: without_tick(handle.agent.channel.latest_observation())
                 for agent_id, handle in s.handles.items()
                 if handle.agent.channel is not None}
        seen.append((s.store.dump_turtle(DATA_GRAPH), heard))

    with scenario:
        result = scenario.run_task("move_pallet", params, on_tick=snapshot)
        outcome = (result.status, result.ticks, result.stalled_step,
                   result.violations_per_tick, format_trace(result.trace))
    return outcome, seen


@pytest.mark.parametrize("case", REPORT_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_report_by_exception_changes_nothing_an_agent_sees(case, seed):
    """Publishing and mirroring only on change leaves the outcome, the trace,
    the violations, and after every tick the data graph and each agent's
    view of its device, as when every tick is published and mirrored."""
    outcome, seen = run_reporting(case, seed, reference=False)
    expected, expected_seen = run_reporting(case, seed, reference=True)
    assert outcome == expected
    assert len(seen) == len(expected_seen) == outcome[1] > 0
    for tick, (got, want) in enumerate(zip(seen, expected_seen), start=1):
        assert got == want, f"tick {tick}"


def record_publishes(scenario: Scenario) -> dict[str, list[dict]]:
    """Every observation each connection publishes, decoded, by device."""
    published = {}
    for agent_id, handle in scenario.handles.items():
        if handle.connection is None:
            continue
        adapter = handle.connection.adapter
        texts = published[agent_id] = []

        def publish(topic, text, adapter=adapter, texts=texts):
            texts.append(json.loads(text))
            type(adapter).publish(adapter, topic, text)

        adapter.publish = publish
    return published


def publishes_over_the_fixture_task(reference: bool, **kwargs):
    with fresh(**kwargs) as scenario:
        if reference:
            use_reference_connections(scenario)
        published = record_publishes(scenario)
        result = scenario.run_task("move_pallet", PARAMS)
        assert (result.status, result.ticks) == ("completed", 21)
    return published


def test_an_unchanged_device_publishes_nothing():
    """Each connection publishes once per state it reports: the states of an
    every-tick stream with repeats collapsed, each stamped with the tick it
    first appeared."""
    published = publishes_over_the_fixture_task(reference=False)
    every_tick = publishes_over_the_fixture_task(reference=True)
    assert sorted(published) == ["roboticarm", "turtlebot"]
    for device, stream in every_tick.items():
        assert len(stream) == 21
        changes = [report for before, report in zip([None, *stream], stream)
                   if without_tick(report) != without_tick(before)]
        assert published[device] == changes
        states = [canonical_json(without_tick(report)) for report in published[device]]
        assert len(published[device]) == len(set(states)) < 21


def arm_waits_to_grip(scenario: Scenario) -> bool:
    world = scenario.world
    arm = world.devices["roboticarm"]
    return (world.device_busy("roboticarm") and arm.holding is None
            and arm.joints == PICK_POSTURE and not world.pallets_in_reach("roboticarm"))


def turtlebot_has_delivered(scenario: Scenario) -> bool:
    world = scenario.world
    return (not world.device_busy("turtlebot") and world.devices["turtlebot"].holding is None
            and world.pallet_positions()["Pallet1"] != "P1")


def publishes_around_an_invoke(reference: bool, device: str, invoke: dict, when):
    """Run the fixture task and send ``invoke`` to ``device`` after the first
    tick on which ``when`` holds. Returns the device's publishes, that tick,
    and whether the world handed the device the same payload on the next
    tick (known only without the reference connections)."""
    with fresh() as scenario:
        if reference:
            use_reference_connections(scenario)
        published = record_publishes(scenario)[device]
        connection = scenario.handles[device].connection
        sent = {}

        def send_once(s: Scenario):
            if not sent and when(s):
                sent.update(tick=s.world.tick, payload=connection._digested)
                sender = s.registry.resolve(connection.adapter.endpoint)
                sender.publish(connection.blueprint.command_topics[0], canonical_json(invoke))
                sender.close()
            elif sent and s.world.tick == sent["tick"] + 1:
                sent["unchanged"] = connection._digested is sent["payload"] is not None

        result = scenario.run_task("move_pallet", PARAMS, on_tick=send_once)
        assert (result.status, result.ticks) == ("completed", 21)
    return published, sent["tick"], sent.get("unchanged")


@pytest.mark.parametrize("device, invoke, when, error", [
    ("roboticarm", {"op": "invoke", "id": 99, "capability": "GripperControl",
                    "params": {"to": "P2"}}, arm_waits_to_grip, "device busy"),
    ("turtlebot", {"op": "invoke", "id": 98, "capability": "MotionControl",
                   "params": {"to": "cell:9,9"}}, turtlebot_has_delivered,
     "a command needs a cell on the 6x4 grid, got 'cell:9,9'"),
], ids=["busy_during_grip_wait", "off_grid_while_idle"])
def test_an_outcome_that_changes_alone_is_published_on_its_tick(device, invoke, when,
                                                                error):
    """A refused invoke changes only the echoed outcome, on a tick on which
    the device's own state does not change; it is still published on that
    tick, as when every tick is published."""
    published, tick, unchanged = publishes_around_an_invoke(False, device, invoke, when)
    every_tick, reference_tick, _ = publishes_around_an_invoke(True, device, invoke, when)
    assert tick == reference_tick and unchanged
    changes = [report for before, report in zip([None, *every_tick], every_tick)
               if without_tick(report) != without_tick(before)]
    assert published == changes
    refused = next(report for report in published if report["failed_id"] == invoke["id"])
    assert (refused["tick"], refused["error"]) == (tick + 1, error)


def test_a_late_mqtt_subscriber_gets_the_last_reported_state():
    """The broker retains the last report, stamped with the tick it was first
    reported, and hands it to a subscriber that joins after the task."""
    with fresh(transport_overrides={"turtlebot": "mqtt"}) as scenario:
        connection = scenario.handles["turtlebot"].connection
        assert scenario.handles["turtlebot"].blueprint.binding == connection.adapter.endpoint
        assert connection.adapter.endpoint.scheme == "mqtt"
        published = record_publishes(scenario)
        result = scenario.run_task("move_pallet", PARAMS)
        assert result.status == "completed"
        last = published["turtlebot"][-1]
        assert last["tick"] < scenario.world.tick
        late = scenario.registry.resolve(connection.adapter.endpoint)
        received = []
        for topic in connection.blueprint.observation_topics:
            late.subscribe(topic, lambda text: received.append(json.loads(text)))
        late.close()
        agent_view = scenario.handles["turtlebot"].agent.channel.latest_observation()
    assert received == [last] * len(connection.blueprint.observation_topics)
    assert agent_view == last


@pytest.mark.parametrize("scheme", SCHEMES)
def test_malformed_commands_are_dropped(scheme):
    """Command text that is not JSON, is not an ``invoke`` object, has an id
    that is not an integer or params that are not a map is dropped, on every
    transport kind."""
    with fresh(transport_overrides={"roboticarm": scheme}) as scenario:
        connection = scenario.handles["roboticarm"].connection
        sender = scenario.registry.resolve(connection.adapter.endpoint)
        topic = connection.blueprint.command_topics[0]
        for text in ["not json {", canonical_json([{"op": "invoke", "id": 3}])] + [
                canonical_json(payload) for payload in (
                    {"op": "cancel", "id": 3, "capability": "GripperControl",
                     "params": {"to": "P2"}},
                    {"id": 4, "capability": "GripperControl", "params": {"to": "P2"}},
                    {"op": "invoke", "id": "x"},
                    {"op": "invoke", "id": None},
                    {"op": "invoke", "id": 7, "capability": "GripperControl",
                     "params": [1]})]:
            sender.publish(topic, text)
        sender.close()
        assert connection._command_id is None
        assert connection._outcome == {"done_id": None, "failed_id": None}
        result = scenario.run_task("move_pallet", PARAMS)
    assert (result.status, result.ticks) == ("completed", 21)
