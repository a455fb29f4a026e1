"""End-to-end scenario runs against the warehouse fixture."""

from __future__ import annotations

import json

import pytest

from helpers import fixture_path, fixture_text, graph_facts, world_state_facts
from kgmas.acl import AclMessage, Performative, format_trace
from kgmas.connection import PICK_POSTURE
from kgmas.errors import ValidationError
from kgmas.protocol import derive_trace_skeleton, load_protocol
from kgmas.runtime import Scenario
from kgmas.store import NamedGraphStore
from kgmas.terms import Literal, Triple
from kgmas.vocab import (
    AT_POSITION,
    AT_TICK,
    DATA_GRAPH,
    HAS_GRIPPER_STATE,
    HAS_JOINT_STATES,
    HAS_STATUS,
    SETUP_GRAPH,
    XSD_INTEGER,
    kgmas,
)
from kgmas.world import WarehouseWorld

SETUP = fixture_path("fig3_setup.ttl")
WORLD = fixture_path("warehouse_world.json")
PARAMS = {"from": "P1", "to": "P2"}


def fresh(**kwargs) -> Scenario:
    return Scenario.from_files(SETUP, WORLD, **kwargs)


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
    # A device between two native commands of one invocation is still busy.
    working = {agent_id for agent_id, handle in connected.items()
               if handle.connection._batch is not None}
    expected = world_state_facts(scenario.world, assets, working)
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
    with fresh() as scenario:
        result = scenario.run_task("move_pallet", PARAMS, deadline_ms=0)
    assert (result.status, result.stalled_step) == ("failed", 1)
    assert scenario.world.pallet_positions() == {"Pallet1": "P1"}


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
