"""Acceptance suite: one test per release criterion.

Each test prints exactly one PASS or FAIL line for its criterion and
enforces the stated time budget where one applies. Run with ``-s`` to
see the lines as they happen; without it they appear in the captured
output of failing tests only.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from contextlib import contextmanager

from helpers import (
    bgp_oracle,
    consistency_oracle,
    fixture_path,
    fixture_text,
    grow_setup,
    random_pattern,
    random_setup,
    random_triples,
)
from kgmas.acl import (
    AclMessage,
    Bus,
    Performative,
    deserialize_message,
    serialize_message,
)
from kgmas.agents import generate_agents
from kgmas.cli import main
from kgmas.protocol import check_world_consistency, derive_trace_skeleton, load_protocol
from kgmas.runtime import Scenario
from kgmas.store import NamedGraphStore
from kgmas.terms import Literal, Triple
from kgmas.turtle import parse_turtle, serialize_turtle
from kgmas.vocab import (
    AT_POSITION,
    DATA_GRAPH,
    EVENT_NAME,
    HAS_REALM,
    SETUP_GRAPH,
    kgmas,
)

SETUP = fixture_path("fig3_setup.ttl")
WORLD = fixture_path("warehouse_world.json")
RUN_ARGS = ["run", "--setup", SETUP, "--world", WORLD, "--task", "move_pallet",
            "--param", "from=P1", "--param", "to=P2", "--seed", "0"]

TASK_REQUEST_CONTENT = {"task": "move_pallet", "from": "P1", "to": "P2"}
EVENT_CONTENT = {"event": "pallet_placed"}


@contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {title}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"FAIL  criterion {number}: {title} "
              f"(over budget: {elapsed:.2f}s >= {budget_s:.0f}s)")
        raise AssertionError(f"criterion {number} ran {elapsed:.2f}s, "
                             f"budget {budget_s:.0f}s")
    budget = f", budget {budget_s:.0f}s" if budget_s is not None else ""
    print(f"PASS  criterion {number}: {title} ({elapsed:.2f}s{budget})")


def load_setup(text: str) -> NamedGraphStore:
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, text)
    return store


def test_criterion_1_end_to_end_scenario(tmp_path, capsys):
    with criterion(1, "fixture warehouse run completes the pallet move", 5.0):
        out_dir = tmp_path / "run"
        assert main(RUN_ARGS + ["--out", str(out_dir)]) == 0

        store = NamedGraphStore()
        store.load_turtle(SETUP_GRAPH, fixture_text("fig3_setup.ttl"))
        protocol = load_protocol(store, SETUP_GRAPH, "move_pallet")
        expected = derive_trace_skeleton(protocol)

        trace = (out_dir / "trace.log").read_text(encoding="utf-8")
        projection = [tuple(line.split("\t")[1:4])
                      for line in trace.splitlines() if line]
        assert projection == expected

        data = NamedGraphStore()
        data.load_turtle(DATA_GRAPH, (out_dir / "data.ttl").read_text("utf-8"))
        triples = data.triples(DATA_GRAPH)
        assert Triple(kgmas("Pallet1"), AT_POSITION, Literal("P2")) in triples
        assert any(t.predicate == EVENT_NAME
                   and t.object == Literal("pallet_placed") for t in triples)


def test_criterion_2_agent_generation_counts():
    with criterion(2, "one generated agent per described asset", 10.0):
        fig3 = load_setup(fixture_text("fig3_setup.ttl"))
        assert len(generate_agents(fig3, SETUP_GRAPH)) == 2

        rng = random.Random(2024)
        for round_no in range(50):
            k = rng.randint(0, 10)
            text, agent_ids = random_setup(rng, k)
            specs = generate_agents(load_setup(text), SETUP_GRAPH)
            assert len(specs) == k, (round_no, k)
            assert [s.agent_id for s in specs] == agent_ids

            grown_text, extra_id = grow_setup(rng, text, round_no)
            grown = generate_agents(load_setup(grown_text), SETUP_GRAPH)
            assert len(grown) == k + 1
            assert extra_id in {s.agent_id for s in grown}

        # the same growth as a pure fixture-file change
        plus_one = load_setup(fixture_text("fig3_setup_plus_one.ttl"))
        assert len(generate_agents(plus_one, SETUP_GRAPH)) == 3


def test_criterion_3_query_engine_matches_oracle():
    with criterion(3, "pattern queries equal the nested-loop oracle", 30.0):
        rng = random.Random(3003)
        graphs = []
        for g in range(20):
            triples = random_triples(rng, rng.randrange(1, 501))
            store = NamedGraphStore()
            for triple in sorted(triples, key=lambda t: (t.subject.value,
                                                         t.predicate.value)):
                store.insert("g", triple)
            graphs.append((store, triples))
        for q in range(50):
            store, triples = graphs[q % len(graphs)]
            patterns = [random_pattern(rng, triples)
                        for _ in range(rng.randint(1, 4))]
            assert store.query("g", patterns) == bgp_oracle(triples, patterns), q


def test_criterion_4_round_trips():
    with criterion(4, "turtle and message round trips are lossless"):
        rng = random.Random(44)
        for g in range(100):
            triples = random_triples(rng, rng.randrange(0, 120))
            text = serialize_turtle(triples)
            again = set(parse_turtle(text))
            assert again == triples, g
            assert serialize_turtle(again) == text

        performatives = list(Performative)
        messages = [
            AclMessage(Performative.REQUEST, "operator", "turtlebot",
                       TASK_REQUEST_CONTENT, "conv-1"),
            AclMessage(Performative.INFORM, "roboticarm", "kg",
                       EVENT_CONTENT, "conv-1"),
        ]
        while len(messages) < 1000:
            messages.append(AclMessage(
                rng.choice(performatives),
                f"agent{rng.randrange(6)}", f"peer{rng.randrange(6)}",
                {"n": rng.randrange(1000), "text": "é世界"[: rng.randrange(4)],
                 "flags": [True, None, rng.random() < 0.5]},
                f"conv-{rng.randrange(20)}",
                None if rng.random() < 0.5 else f"r{rng.randrange(99)}",
                None if rng.random() < 0.5 else f"q{rng.randrange(99)}"))
        mismatches = [m for m in messages
                      if deserialize_message(serialize_message(m)) != m]
        assert mismatches == []
        assert json.loads(serialize_message(messages[0]))["content"] == \
            TASK_REQUEST_CONTENT


def test_criterion_5_transport_neutrality():
    with criterion(5, "all nine transport assignments finish identically", 60.0):
        dumps = []
        for bot_scheme, arm_scheme in itertools.product(
                ("mqtt", "rest+http", "ros+ws"), repeat=2):
            with Scenario.from_files(SETUP, WORLD, transport_overrides={
                    "turtlebot": bot_scheme, "roboticarm": arm_scheme,
            }) as scenario:
                result = scenario.run_task("move_pallet",
                                           {"from": "P1", "to": "P2"})
                assert result.status == "completed", (bot_scheme, arm_scheme)
                dumps.append(scenario.store.dump_turtle(DATA_GRAPH))
        assert len(set(dumps)) == 1
        assert "Task_move_pallet_1" in dumps[0]


def test_criterion_6_consistency_checker():
    with criterion(6, "co-location checker equals the pairwise oracle"):
        rng = random.Random(66)
        for round_no in range(200):
            store = NamedGraphStore()
            rows = []
            entities = [f"E{i}" for i in range(rng.randint(2, 6))]
            for entity in entities:
                realm = rng.choice(("physical", "digital"))
                position = rng.choice(("P1", "P2", "cell:0,0", "cell:5,5"))
                rows.append((entity, realm, position))
                subject = kgmas(entity)
                store.insert(DATA_GRAPH, Triple(subject, HAS_REALM,
                                                kgmas(realm)))
                store.insert(DATA_GRAPH, Triple(subject, AT_POSITION,
                                                Literal(position)))
            found = [(v.rule, v.first, v.second, v.position)
                     for v in check_world_consistency(store, DATA_GRAPH)]
            expected = [(rule, kgmas(a).value, kgmas(b).value, position)
                        for rule, a, b, position in consistency_oracle(rows)]
            assert found == expected, (round_no, rows)

        with Scenario.from_files(SETUP, WORLD) as scenario:
            result = scenario.run_task("move_pallet", {"from": "P1", "to": "P2"})
        assert result.status == "completed"
        assert result.violations_per_tick == [0] * result.ticks


def test_criterion_7_determinism(tmp_path, capsys):
    with criterion(7, "repeat runs are byte-identical"):
        for name in ("a", "b"):
            assert main(RUN_ARGS + ["--out", str(tmp_path / name)]) == 0
        for artifact in ("trace.log", "data.ttl"):
            first = (tmp_path / "a" / artifact).read_bytes()
            second = (tmp_path / "b" / artifact).read_bytes()
            assert first == second, artifact


def test_criterion_8_bus_ordering_under_load():
    with criterion(8, "bus keeps per-sender order, delivers exactly once"):
        bus = Bus()
        bus.register("sink")
        senders = [f"p{k}" for k in range(4)]
        for sender in senders:
            bus.register(sender)
        per_sender = 250

        def produce(name: str):
            for i in range(per_sender):
                bus.send(AclMessage(Performative.INFORM, name, "sink",
                                    {"sender": name, "n": i}, "conv-load"))

        threads = [threading.Thread(target=produce, args=(s,)) for s in senders]
        for thread in threads:
            thread.start()
        received = []
        while len(received) < per_sender * len(senders):
            message = bus.receive("sink", timeout=5.0)
            assert message is not None, "timed out draining the bus"
            received.append(message)
        for thread in threads:
            thread.join()
        assert bus.try_receive("sink") is None
        delivered = sorted((m.sender, m.content["n"]) for m in received)
        expected = sorted((s, i) for s in senders for i in range(per_sender))
        assert delivered == expected  # exactly once, nothing else
        for sender in senders:
            sequence = [m.content["n"] for m in received if m.sender == sender]
            assert sequence == list(range(per_sender))
