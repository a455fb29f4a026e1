"""Coordination protocol loading, mediator decisions and event recording."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib
import inspect
import json
import random
from pathlib import Path

import pytest

from helpers import (NS, ONE_STEP_ALPHABET, PAIRED_ALPHABET, consistency_oracle,
                     consistency_scan, counted_store_reads, fixture_text,
                     protocol_step_triples, setup_with_step_inside_pair,
                     setup_without_steps, token_sequences, token_steps)
from kgmas import protocol as protocol_module
from kgmas import vocab
from kgmas.acl import AclMessage, Bus, Performative
from kgmas.agents import KgAgent
from kgmas.errors import EventRejectedError, ProtocolError
from kgmas.protocol import (
    COMPLETED,
    FAILED,
    IN_PROGRESS,
    PENDING,
    QUERY_NEXT,
    REPORT_EVENT,
    TaskState,
    check_world_consistency,
    derive_trace_skeleton,
    handle_request,
    load_protocol,
    next_action,
    record_event,
    substitute,
)
from kgmas.runtime import Scenario
from kgmas.store import NamedGraphStore
from kgmas.terms import Iri, Literal, Triple
from kgmas.turtle import parse_turtle
from kgmas.vocab import DATA_GRAPH, SETUP_GRAPH, kgmas
from kgmas.world import WarehouseWorld

MOVER = kgmas("MoverRole")
PLACER = kgmas("PlacerRole")

# Frozen expectation, replayed by hand from the step table: operator
# kicks off the mover, every instruction flows through the mediator,
# and each report is confirmed before the reporter asks again.
EXPECTED_SKELETON = [
    ("request", "operator", "turtlebot"),
    ("request", "turtlebot", "kg"),
    ("inform", "kg", "turtlebot"),
    ("request", "turtlebot", "roboticarm"),
    ("request", "roboticarm", "kg"),
    ("inform", "kg", "roboticarm"),
    ("inform", "kg", "turtlebot"),
    ("inform", "turtlebot", "kg"),
    ("confirm", "kg", "turtlebot"),
    ("request", "turtlebot", "kg"),
    ("inform", "kg", "turtlebot"),
    ("inform", "roboticarm", "kg"),
    ("confirm", "kg", "roboticarm"),
    ("request", "roboticarm", "kg"),
    ("inform", "kg", "roboticarm"),
]


@pytest.fixture
def protocol(setup_store):
    return load_protocol(setup_store, SETUP_GRAPH, task_name="move_pallet")


def make_task(protocol, index=1, status=PENDING, params=None):
    return TaskState("T1", protocol,
                     params if params is not None else {"from": "P1", "to": "P2"},
                     index=index, status=status)


def test_load_fixture_protocol(protocol):
    assert protocol.task_name == "move_pallet"
    assert len(protocol.steps) == 7
    assert [s.index for s in protocol.steps] == list(range(1, 8))
    assert protocol.roles == {MOVER: kgmas("MotionControl"),
                              PLACER: kgmas("GripperControl")}
    assert protocol.role_assets == {MOVER: kgmas("Turtlebot"),
                                    PLACER: kgmas("RoboticArm")}
    assert protocol.initiator_role == MOVER
    assert protocol.agent_for(PLACER) == "roboticarm"
    assert protocol.role_of_agent("turtlebot") == MOVER
    assert protocol.role_of_agent("stranger") is None
    kinds = [s.kind for s in protocol.steps]
    assert kinds == ["query_next", "send_request", "perform_action",
                     "report_event", "perform_action", "report_event",
                     "query_next"]


def test_load_order_independent(setup_text, protocol):
    triples = parse_turtle(setup_text)
    rng = random.Random(13)
    rng.shuffle(triples)
    store = NamedGraphStore()
    for triple in triples:
        store.insert(SETUP_GRAPH, triple)
    assert load_protocol(store, SETUP_GRAPH, task_name="move_pallet") == protocol


def test_load_rejects_gap_in_step_indexes(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(kgmas("MovePalletProtocol"),
                                           vocab.HAS_STEP, kgmas("MovePalletStep4")))
    with pytest.raises(ProtocolError, match="missing index 4"):
        load_protocol(setup_store, SETUP_GRAPH, task_name="move_pallet")


def test_load_rejects_missing_step_index(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(kgmas("MovePalletStep4"),
                                           vocab.STEP_INDEX,
                                           Literal("4", vocab.XSD_INTEGER)))
    with pytest.raises(ProtocolError, match="step index"):
        load_protocol(setup_store, SETUP_GRAPH, task_name="move_pallet")


def test_load_rejects_capability_mismatch(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(kgmas("RoboticArm"),
                                           vocab.HAS_CAPABILITY,
                                           kgmas("GripperControl")))
    with pytest.raises(ProtocolError, match="lacks capability"):
        load_protocol(setup_store, SETUP_GRAPH, task_name="move_pallet")


@pytest.mark.parametrize("removed, added, count", [
    (Triple(kgmas("Turtlebot"), vocab.HAS_COORDINATION_ROLE, MOVER), None, 0),
    (None, Triple(kgmas("RoboticArm"), vocab.HAS_COORDINATION_ROLE, MOVER), 2),
])
def test_load_rejects_a_role_not_bound_to_one_asset(setup_store, removed, added,
                                                     count):
    if removed is not None:
        setup_store.remove(SETUP_GRAPH, removed)
    if added is not None:
        setup_store.insert(SETUP_GRAPH, added)
    with pytest.raises(ProtocolError, match=f"MoverRole: bound to {count} "
                                            f"assets, expected one"):
        load_protocol(setup_store, SETUP_GRAPH, task_name="move_pallet")


def test_load_rejects_literal_step(setup_text):
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, setup_text.replace(
        "kgmas:hasStep kgmas:MovePalletStep1", 'kgmas:hasStep "MovePalletStep1"'))
    with pytest.raises(ProtocolError, match="step must be an iri"):
        load_protocol(store, SETUP_GRAPH, task_name="move_pallet")


def test_load_rejects_a_perform_without_its_report_behind_it():
    """A step between a perform and its report would stall the task."""
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, setup_with_step_inside_pair())
    with pytest.raises(ProtocolError, match="step 3: a perform step must be "
                                            "followed directly by a report"):
        load_protocol(store, SETUP_GRAPH, task_name="move_pallet")


PLACER = kgmas("PlacerRole")
_DELIVERED = '{"event":"pallet_delivered"}'


def load_steps(steps):
    """Load the fixture protocol with its steps replaced by ``steps``."""
    store = NamedGraphStore()
    store.atomic_update(SETUP_GRAPH, [], setup_without_steps() + protocol_step_triples(steps))
    return load_protocol(store, SETUP_GRAPH, task_name="move_pallet")


@pytest.mark.parametrize("steps, message", [
    # a one-step protocol, Placer requests Mover: it used to load, then fail
    # at step 2 after 23 ticks, because nothing answers the last request
    ([(vocab.KIND_SEND_REQUEST, PLACER, MOVER, None)],
     "step 1: a request must be followed by a step other than a query"),
    ([(vocab.KIND_QUERY_NEXT, PLACER, None, None),
      (vocab.KIND_PERFORM_ACTION, MOVER, None, None),
      (vocab.KIND_REPORT_EVENT, MOVER, None, _DELIVERED),
      (vocab.KIND_SEND_REQUEST, PLACER, MOVER, None)],
     "step 4: a request must be followed by a step other than a query"),
    ([(vocab.KIND_SEND_REQUEST, MOVER, PLACER, None),
      (vocab.KIND_QUERY_NEXT, PLACER, None, None),
      (vocab.KIND_QUERY_NEXT, MOVER, None, None)],
     "step 1: a request must be followed by a step other than a query"),
], ids=["request_alone", "request_last", "request_then_queries"])
def test_load_refuses_a_request_that_no_step_answers(steps, message):
    with pytest.raises(ProtocolError) as refusal:
        load_steps(steps)
    assert str(refusal.value) == message


def test_load_accepts_a_request_answered_by_a_later_step():
    steps = [(vocab.KIND_SEND_REQUEST, MOVER, PLACER, None),
             (vocab.KIND_PERFORM_ACTION, PLACER, None, None),
             (vocab.KIND_REPORT_EVENT, PLACER, None, _DELIVERED),
             (vocab.KIND_QUERY_NEXT, PLACER, None, None)]
    assert [step.index for step in load_steps(steps).steps] == [1, 2, 3, 4]


def test_load_outcomes_of_every_short_protocol_are_pinned():
    """What ``load_protocol`` says of every protocol up to five steps built
    from the paired alphabet, and up to three from the one-step alphabet:
    ``loaded`` or the refusal's text, digested in enumeration order."""
    lines, loaded = [], 0
    for alphabet, max_steps in ((PAIRED_ALPHABET, 5), (ONE_STEP_ALPHABET, 3)):
        for names in token_sequences(alphabet, max_steps):
            try:
                load_steps(token_steps(names))
                outcome = "loaded"
                loaded += 1
            except ProtocolError as exc:
                outcome = str(exc)
            lines.append(f"{' '.join(names)}\t{outcome}")
    assert (len(lines), loaded) == (2042 + 1884, 212 + 20)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "315054cdfc97fda1e6c74766667d10fc07926ab653022f9924cdb63bae56223f")


@pytest.mark.parametrize("steps, message", [
    # the placer queries, then the mover is pushed a request it cannot
    # forward: it holds no task request in the conversation
    ([(vocab.KIND_QUERY_NEXT, PLACER, None, None),
      (vocab.KIND_SEND_REQUEST, MOVER, PLACER, None),
      (vocab.KIND_PERFORM_ACTION, MOVER, None, None),
      (vocab.KIND_REPORT_EVENT, MOVER, None, _DELIVERED)],
     "step 2: a request must come from the initiating role or a role an earlier "
     "request targeted"),
    # the placer is told to wait, and nothing prompts the mover to ask
    ([(vocab.KIND_QUERY_NEXT, PLACER, None, None),
      (vocab.KIND_QUERY_NEXT, MOVER, None, None)],
     "step 2: a query step must open the protocol for the initiating role, directly "
     "follow a report or query of its own role, or come after the last report"),
    # a query between a request and the answering perform is never asked
    ([(vocab.KIND_SEND_REQUEST, MOVER, PLACER, None),
      (vocab.KIND_QUERY_NEXT, PLACER, None, None),
      (vocab.KIND_PERFORM_ACTION, PLACER, None, None),
      (vocab.KIND_REPORT_EVENT, PLACER, None, _DELIVERED)],
     "step 2: a query step must open the protocol for the initiating role, directly "
     "follow a report or query of its own role, or come after the last report"),
    # qP qM pM: step 2's query is never prompted either, but the pairing rule
    # of the per-step group fails first, at step 3
    ([(vocab.KIND_QUERY_NEXT, PLACER, None, None),
      (vocab.KIND_QUERY_NEXT, MOVER, None, None),
      (vocab.KIND_PERFORM_ACTION, MOVER, None, None)],
     "step 3: a perform step must be followed directly by a report step of the same role"),
], ids=["request_without_the_task", "query_never_prompted", "query_behind_a_request",
        "unpaired_perform_refused_before_an_unprompted_query"])
def test_load_refuses_a_protocol_the_mediator_cannot_run(steps, message):
    with pytest.raises(ProtocolError) as refusal:
        load_steps(steps)
    assert str(refusal.value) == message


@pytest.mark.parametrize("steps", [
    [(vocab.KIND_QUERY_NEXT, MOVER, None, None), (vocab.KIND_QUERY_NEXT, MOVER, None, None),
     (vocab.KIND_PERFORM_ACTION, MOVER, None, None),
     (vocab.KIND_REPORT_EVENT, MOVER, None, _DELIVERED)],
    [(vocab.KIND_SEND_REQUEST, MOVER, PLACER, None),
     (vocab.KIND_SEND_REQUEST, PLACER, MOVER, None),
     (vocab.KIND_PERFORM_ACTION, MOVER, None, None),
     (vocab.KIND_REPORT_EVENT, MOVER, None, _DELIVERED),
     (vocab.KIND_QUERY_NEXT, MOVER, None, None), (vocab.KIND_QUERY_NEXT, MOVER, None, None),
     (vocab.KIND_QUERY_NEXT, PLACER, None, None)],
], ids=["opening_queries", "forwarded_request_and_trailing_queries"])
def test_load_accepts_every_moment_a_role_asks_or_forwards(steps):
    assert len(load_steps(steps).steps) == len(steps)


STEP2_TARGET = "kgmas:MovePalletStep2 kgmas:targetRole kgmas:PlacerRole .\n"
STEP3_KIND = "kgmas:MovePalletStep3 kgmas:actionKind kgmas:performAction ."
STEP3_TEMPLATE = ('kgmas:MovePalletStep3 kgmas:contentTemplate '
                  '"{\\"from\\":\\"{from}\\",\\"to\\":\\"cell:3,2\\"}" .')


@pytest.mark.parametrize("old, new, message", [
    ('kgmas:MovePalletStep3 kgmas:stepIndex "3"', 'kgmas:MovePalletStep3 kgmas:stepIndex "x"',
     f"{NS}MovePalletStep3 index must be an integer literal"),
    ('kgmas:forTask "move_pallet" .',
     'kgmas:forTask "move_pallet" .\nkgmas:SpareProtocol kgmas:forTask "move_pallet" .',
     f"ambiguous protocol selection: {NS}MovePalletProtocol, {NS}SpareProtocol"),
    ('kgmas:forTask "move_pallet" .',
     'kgmas:forTask "move_pallet" .\nkgmas:MovePalletProtocol kgmas:forTask "carry" .',
     f"{NS}MovePalletProtocol: expected one task name"),
    ("kgmas:bindsRole kgmas:PlacerRole .",
     'kgmas:bindsRole kgmas:PlacerRole .\nkgmas:MovePalletProtocol kgmas:bindsRole "Lifter" .',
     f"{NS}MovePalletProtocol: role must be an iri"),
    ("kgmas:MoverRole kgmas:requiresCapability kgmas:MotionControl .",
     "kgmas:MoverRole kgmas:requiresCapability kgmas:MotionControl .\n"
     "kgmas:MoverRole kgmas:requiresCapability kgmas:Lidar .",
     f"{NS}MoverRole: expected one required capability, found 2"),
    ("kgmas:MovePalletStep3 kgmas:stepRole kgmas:MoverRole .",
     "kgmas:MovePalletStep3 kgmas:stepRole kgmas:MoverRole .\n"
     "kgmas:MovePalletStep3 kgmas:stepRole kgmas:PlacerRole .",
     f"{NS}MovePalletStep3: expected one step role"),
    (STEP3_KIND, "kgmas:MovePalletStep3 kgmas:actionKind kgmas:dance .",
     f"{NS}MovePalletStep3: unknown action kind"),
    (STEP3_TEMPLATE, STEP3_TEMPLATE + '\nkgmas:MovePalletStep3 kgmas:contentTemplate "{}" .',
     f"{NS}MovePalletStep3: expected one content template"),
    (STEP3_TEMPLATE, 'kgmas:MovePalletStep3 kgmas:contentTemplate "{to" .',
     f"{NS}MovePalletStep3: content template is not valid JSON: Expecting property "
     f"name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("kgmas:hasStep", "kgmas:hasDraftStep", f"{NS}MovePalletProtocol: protocol has no steps"),
    ("kgmas:MovePalletStep3 kgmas:stepRole kgmas:MoverRole .",
     "kgmas:MovePalletStep3 kgmas:stepRole kgmas:LifterRole .",
     f"step 3: role {NS}LifterRole is not bound by the protocol"),
    (STEP2_TARGET, "", "step 2: request target role missing or unbound"),
    (STEP2_TARGET, STEP2_TARGET.replace("PlacerRole", "MoverRole"),
     "step 2: a request must target another role"),
    (STEP3_KIND, STEP3_KIND.replace("performAction", "queryNext"),
     "step 4: a report step must directly follow a perform step of the same role"),
    (STEP3_KIND, STEP3_KIND + "\nkgmas:MovePalletStep3 kgmas:targetRole kgmas:PlacerRole .",
     "step 3: only a request step names a target role"),
    (STEP2_TARGET, STEP2_TARGET + "kgmas:MovePalletStep2 kgmas:targetRole kgmas:StackerRole .\n",
     "step 2: expected one target role"),
    (STEP2_TARGET, STEP2_TARGET + "kgmas:MovePalletStep2 kgmas:targetRole kgmas:MoverRole .\n",
     "step 2: a request must target another role"),
], ids=["integer_literal", "ambiguous_selection", "one_task_name", "role_iri",
        "capability_count", "step_role", "action_kind", "template_count", "template_json",
        "no_steps", "unbound_step_role", "request_target", "self_request",
        "standalone_report", "target_on_a_perform", "two_targets",
        "two_targets_first_is_own_role"])
def test_load_refusal_messages(setup_text, old, new, message):
    """One setup edit per refusal, each pinned to its whole message."""
    assert old in setup_text
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, setup_text.replace(old, new))
    with pytest.raises(ProtocolError) as refusal:
        load_protocol(store, SETUP_GRAPH, task_name="move_pallet")
    assert str(refusal.value) == message


def test_load_unknown_task(setup_store):
    with pytest.raises(ProtocolError, match="no protocol"):
        load_protocol(setup_store, SETUP_GRAPH, task_name="paint_fence")


def test_substitute_fills_known_names_only():
    template = {"move": "{from}->{to}", "n": 3,
                "steps": ["{from}", "{mystery}"]}
    out = substitute(template, {"from": "P1", "to": "P2"})
    assert out == {"move": "P1->P2", "n": 3, "steps": ["P1", "{mystery}"]}


def test_at_most_one_role_has_the_turn(protocol):
    """Wherever a run can leave the cursor, at most one role gets a real
    instruction. A report step is consumed with its perform, so the cursor
    never rests on one."""
    for index in range(1, len(protocol.steps) + 2):
        if index <= len(protocol.steps) and protocol.steps[index - 1].kind == REPORT_EVENT:
            continue
        actionable = []
        for role in protocol.roles:
            task = make_task(protocol, index=index, status=IN_PROGRESS)  # asking moves it
            if next_action(task, role)["action"] not in ("wait", "done"):
                actionable.append(role)
        assert len(actionable) <= 1, (index, actionable)


def test_next_action_skips_own_query_step(protocol):
    task = make_task(protocol, index=1)
    answer = next_action(task, MOVER)
    assert answer == {"action": "send_request", "to": "roboticarm",
                      "task": "move_pallet"}
    assert (task.index, task.status) == (2, IN_PROGRESS)
    assert task.instructed == {2}


def test_next_action_perform_carries_params_and_report(protocol):
    task = make_task(protocol, index=3)
    answer = next_action(task, MOVER)
    assert answer["action"] == "perform"
    assert answer["capability"] == "MotionControl"
    assert answer["params"] == {"from": "P1", "to": "cell:3,2"}
    assert answer["report"] == "pallet_delivered"
    assert task.instructed == {3}


def test_next_action_out_of_turn_waits(protocol):
    task = make_task(protocol, index=3)
    assert next_action(task, PLACER) == {"action": "wait"}
    assert (task.index, task.status, task.instructed) == (3, PENDING, set())


def test_next_action_done_after_completion(protocol):
    task = make_task(protocol, index=8, status=COMPLETED)
    assert next_action(task, MOVER) == {"action": "done"}
    assert next_action(make_task(protocol, index=7), PLACER) == {"action": "done"}


def test_next_action_consumes_the_askers_query_steps(protocol):
    task = make_task(protocol, index=1)
    next_action(task, MOVER)
    assert (task.index, task.status) == (2, IN_PROGRESS)
    next_action(task, MOVER)
    assert (task.index, task.status) == (2, IN_PROGRESS)

    tail = make_task(protocol, index=7, status=IN_PROGRESS)
    next_action(tail, PLACER)
    assert (tail.index, tail.status) == (8, COMPLETED)


def test_handle_request_instructs_the_recipient(protocol):
    task = make_task(protocol, index=2, status=IN_PROGRESS)
    answer = handle_request(task, PLACER,
                            {"task": "move_pallet", "from": "P1", "to": "P2"})
    assert answer == {"action": "perform", "capability": "GripperControl",
                      "params": {"from": "P1", "to": "P2"},
                      "report": "pallet_placed"}
    assert (task.index, task.status) == (3, IN_PROGRESS)
    assert task.instructed == {5}
    late = make_task(protocol, index=7, status=IN_PROGRESS)
    assert handle_request(late, PLACER,
                          {"task": "move_pallet"}) == {"action": "wait"}


def test_handle_request_refuses_other_tasks(protocol):
    task = make_task(protocol, index=2, status=IN_PROGRESS)
    for content in ({"task": "paint_fence"}, {}, "move_pallet"):
        answer = handle_request(task, PLACER, content)
        assert answer == {"action": "refuse", "reason": "task_mismatch"}
    assert (task.index, task.status, task.instructed) == (2, IN_PROGRESS, set())


@pytest.fixture
def mediator(protocol):
    """A mediator over an empty data store, its clock at tick 11, with one
    ``move_pallet`` task and both asset ids on its bus."""
    bus = Bus()
    for agent_id in ("turtlebot", "roboticarm"):
        bus.register(agent_id)
    kg = KgAgent(bus, NamedGraphStore(), DATA_GRAPH, clock=lambda: 11)
    return bus, kg, kg.create_task(protocol, {"from": "P1", "to": "P2"})


def tell(bus, kg, task, sender, content, performative=Performative.INFORM,
         reply_with=None):
    """Send one message to the mediator in the task's conversation; its answer."""
    bus.send(AclMessage(performative, sender, "kg", content, task.conversation_id,
                        reply_with))
    kg.activate()
    return bus.try_receive(sender)


def task_facts(kg, task):
    return {(t.predicate, t.object) for t in kg.store.triples(DATA_GRAPH)
            if t.subject == task.iri}


def test_record_event_advances_past_the_pair(protocol, mediator):
    assert record_event(make_task(protocol, index=3, status=IN_PROGRESS),
                        MOVER, "pallet_delivered") == 4
    bus, kg, task = mediator
    task.index, task.status = 3, IN_PROGRESS
    answer = tell(bus, kg, task, "turtlebot", {"event": "pallet_delivered"})
    assert answer.performative is Performative.CONFIRM
    assert (task.index, task.status) == (5, IN_PROGRESS)
    event = kgmas(f"{task.task_id}_event_4")
    assert {t for t in kg.store.triples(DATA_GRAPH) if t.subject == event} == {
        Triple(event, vocab.EVENT_NAME, Literal("pallet_delivered")),
        Triple(event, vocab.AT_STEP, Literal("4", vocab.XSD_INTEGER)),
        Triple(event, vocab.AT_TICK, Literal("11", vocab.XSD_INTEGER)),
        Triple(event, vocab.EVENT_OF_TASK, task.iri),
    }
    assert (vocab.CURRENT_STEP_INDEX, Literal("5", vocab.XSD_INTEGER)) in task_facts(kg, task)


def test_record_event_completes_when_only_queries_remain(mediator):
    bus, kg, task = mediator
    task.index, task.status = 5, IN_PROGRESS
    tell(bus, kg, task, "roboticarm", {"event": "pallet_placed"})
    assert (task.index, task.status) == (8, COMPLETED)
    assert (vocab.TASK_STATUS, Literal("completed")) in task_facts(kg, task)


@pytest.mark.parametrize("index,sender,event", [
    (3, "roboticarm", "pallet_delivered"),  # wrong role
    (3, "turtlebot", "pallet_placed"),      # wrong event
    (5, "turtlebot", "pallet_delivered"),   # stale duplicate of an earlier step
    (1, "turtlebot", "pallet_delivered"),   # nothing performed yet
])
def test_record_event_rejects_mismatches(mediator, index, sender, event):
    bus, kg, task = mediator
    task.index, task.status = index, IN_PROGRESS
    before = kg.store.revision
    answer = tell(bus, kg, task, sender, {"event": event})
    assert (answer.performative, answer.content["reason"]) == (
        Performative.REFUSE, "event_rejected")
    assert kg.store.revision == before
    assert (task.index, task.status) == (index, IN_PROGRESS)


def test_record_event_rejects_after_the_end(mediator):
    bus, kg, task = mediator
    task.index, task.status = 8, COMPLETED
    before = kg.store.revision
    answer = tell(bus, kg, task, "roboticarm", {"event": "pallet_placed"})
    assert answer.content == {"reason": "event_rejected", "detail": "task is completed"}
    assert kg.store.revision == before
    with pytest.raises(EventRejectedError, match="completed"):
        record_event(task, PLACER, "pallet_placed")


def test_task_state_written_single_valued(mediator):
    bus, kg, task = mediator
    answer = tell(bus, kg, task, "turtlebot", {"query": "next_action"},
                  Performative.REQUEST, "q-1")
    assert answer.content["action"] == "send_request"
    assert task_facts(kg, task) == {
        (vocab.TASK_NAME, Literal("move_pallet")),
        (vocab.TASK_STATUS, Literal(IN_PROGRESS)),
        (vocab.CURRENT_STEP_INDEX, Literal("2", vocab.XSD_INTEGER)),
    }


def test_fail_records_the_stalled_step(mediator):
    bus, kg, task = mediator
    task.index, task.status = 2, IN_PROGRESS
    kg.fail(task)
    assert (task.status, task.index) == (FAILED, 2)
    assert (vocab.TASK_STATUS, Literal("failed")) in task_facts(kg, task)
    assert next_action(task, MOVER) == {"action": "done"}


@pytest.mark.parametrize("status", [COMPLETED, FAILED])
def test_fail_leaves_a_finished_task_alone(mediator, status):
    bus, kg, task = mediator
    task.index, task.status = 8, status
    before = kg.store.revision
    kg.fail(task)
    assert (task.index, task.status) == (8, status)
    assert kg.store.revision == before


def test_no_rule_writes_the_store():
    """The rules only move a task's cursor; the mediator writes the graph."""
    tree = ast.parse(inspect.getsource(protocol_module))
    writes = {"replace", "atomic_update", "insert", "remove", "load_turtle"}
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert called.isdisjoint(writes), called & writes


# -- consistency checking ---------------------------------------------------


def place(store, entity, realm, position):
    subject = kgmas(entity)
    store.insert(DATA_GRAPH, Triple(subject, vocab.HAS_REALM, kgmas(realm)))
    store.insert(DATA_GRAPH, Triple(subject, vocab.AT_POSITION,
                                    Literal(position)))


def test_consistency_pinned_cases():
    store = NamedGraphStore()
    place(store, "A", "physical", "P1")
    place(store, "B", "physical", "P1")
    place(store, "C", "digital", "P1")
    place(store, "D", "digital", "P2")
    place(store, "E", "digital", "P2")
    found = check_world_consistency(store, DATA_GRAPH)
    assert [(v.rule, v.first, v.second, v.position) for v in found] == [
        ("physical_colocation", kgmas("A").value, kgmas("B").value, "P1"),
        ("physical_digital_colocation", kgmas("A").value, kgmas("C").value, "P1"),
        ("physical_digital_colocation", kgmas("B").value, kgmas("C").value, "P1"),
    ]


def test_consistency_matches_oracle_on_random_placements():
    rng = random.Random(23)
    positions = ("P1", "P2", "cell:0,0", "cell:1,4")
    seen = set()
    for _ in range(30):
        store = NamedGraphStore()
        rows = []
        realm_of: dict[str, str] = {}
        used = set()
        for _ in range(rng.randrange(0, 12)):
            entity = f"E{rng.randrange(8)}"
            position = rng.choice(positions)
            if (entity, position) in used:
                continue
            used.add((entity, position))
            realm = realm_of.setdefault(entity,
                                        rng.choice(("physical", "digital")))
            rows.append((entity, realm, position))
            place(store, entity, realm, position)
        # Realm-less inventory on the same positions must not count.
        for item in range(rng.randrange(0, 40)):
            subject = kgmas(f"Item{item}")
            store.insert(DATA_GRAPH, Triple(subject, vocab.AT_POSITION,
                                            Literal(rng.choice(positions))))
            store.insert(DATA_GRAPH, Triple(subject, kgmas("hasLabel"),
                                            Literal(f"item {item}")))
        found = [(v.rule, v.first, v.second, v.position)
                 for v in check_world_consistency(store, DATA_GRAPH)]
        expected = [(rule, kgmas(a).value, kgmas(b).value, position)
                    for rule, a, b, position in consistency_oracle(rows)]
        assert found == expected == consistency_scan(store, DATA_GRAPH), rows

        # Facts no placement above makes; the reference scan says what they mean.
        odd = rng.sample(sorted(_ODD_FACTS), rng.randrange(1, len(_ODD_FACTS) + 1))
        for name in odd:
            seen.add(name)
            _ODD_FACTS[name](store, rng, positions)
        for graph in (DATA_GRAPH, SETUP_GRAPH):
            found = [(v.rule, v.first, v.second, v.position)
                     for v in check_world_consistency(store, graph)]
            assert found == consistency_scan(store, graph), (rows, odd)
    assert seen == set(_ODD_FACTS)


def _two_realms(store, rng, positions):
    entity = kgmas(f"E{rng.randrange(8)}")
    for realm in ("physical", "digital"):
        store.insert(DATA_GRAPH, Triple(entity, vocab.HAS_REALM, kgmas(realm)))
    store.insert(DATA_GRAPH, Triple(entity, vocab.AT_POSITION, Literal(rng.choice(positions))))


def _unknown_realm(store, rng, positions):
    place(store, f"U{rng.randrange(3)}", "astral", rng.choice(positions))


def _literal_realm(store, rng, positions):
    entity = kgmas(f"L{rng.randrange(3)}")
    realm = rng.choice((Literal("physical"), Literal(vocab.REALM_PHYSICAL.value)))
    store.insert(DATA_GRAPH, Triple(entity, vocab.HAS_REALM, realm))
    store.insert(DATA_GRAPH, Triple(entity, vocab.AT_POSITION, Literal(rng.choice(positions))))


def _iri_position(store, rng, positions):
    entity = kgmas(f"E{rng.randrange(8)}")
    store.insert(DATA_GRAPH, Triple(entity, vocab.HAS_REALM, vocab.REALM_PHYSICAL))
    store.insert(DATA_GRAPH, Triple(entity, vocab.AT_POSITION, kgmas(rng.choice(positions[:2]))))


def _no_position(store, rng, positions):
    store.insert(DATA_GRAPH, Triple(kgmas(f"N{rng.randrange(3)}"), vocab.HAS_REALM,
                                    vocab.REALM_PHYSICAL))


def _other_graph(store, rng, positions):
    for triple in store.triples(DATA_GRAPH):
        store.insert(SETUP_GRAPH, triple)


_ODD_FACTS = {"two_realms": _two_realms, "unknown_realm": _unknown_realm,
              "literal_realm": _literal_realm, "iri_position": _iri_position,
              "no_position": _no_position, "other_graph": _other_graph}


def test_skeleton_matches_hand_derivation(protocol):
    assert derive_trace_skeleton(protocol) == EXPECTED_SKELETON


def test_skeleton_derivation_stays_independent_of_the_mediator():
    """The oracle must not call the rules it is used to check."""
    tree = ast.parse(inspect.getsource(derive_trace_skeleton))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    mediator_rules = {"next_action", "handle_request", "next_push",
                      "record_event", "_instruction_for"}
    assert names.isdisjoint(mediator_rules), names & mediator_rules


def test_skeleton_role_labels_follow_bindings(protocol):
    rebound = dataclasses.replace(protocol, role_assets={MOVER: kgmas("Forklift"),
                                                         PLACER: kgmas("Crane")})
    skeleton = derive_trace_skeleton(rebound)
    assert skeleton[0] == ("request", "operator", "forklift")
    assert {agent for _, s, r in skeleton for agent in (s, r)} == {
        "operator", "kg", "forklift", "crane"}


def test_task_path_reads_do_not_grow_with_assets(monkeypatch):
    """One protocol load and one co-location check read the store as many
    times with 400 idle assets as with none, and the load reads each node
    it needs once, with one ``about``: the protocol, its roles, their
    assets and each step."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    inputs = importlib.import_module("inputs")
    counts = {}
    for n in (0, 100, 400):
        inp = inputs.make_inputs("fleet", 1, fleet=n)
        store = NamedGraphStore()
        store.load_turtle(SETUP_GRAPH, inp.setup_text)
        scenario = Scenario(store, WarehouseWorld.from_fixture(json.loads(inp.world_text)),
                            transport_overrides=inp.overrides)
        try:
            with counted_store_reads(monkeypatch) as calls:
                protocol = load_protocol(store, SETUP_GRAPH, "move_pallet")
                loads = list(calls)
                calls.clear()
                check_world_consistency(store, DATA_GRAPH)
                counts[n] = (len(loads), len(calls))
        finally:
            scenario.close()
        nodes = [node for name, node in loads if name != "rows"]
        steps = [kgmas(f"MovePalletStep{i}") for i in range(1, len(protocol.steps) + 1)]
        assert sorted(nodes, key=lambda node: node.value) == sorted(
            [protocol.protocol_id, *protocol.roles, *protocol.role_assets.values(), *steps],
            key=lambda node: node.value)
        assert [name for name, _ in loads if name != "rows"] == ["about"] * len(nodes)
    assert counts[100] == counts[400] == counts[0], counts
    assert [name for name, _ in calls] == ["rows"]
