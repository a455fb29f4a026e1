"""Setup-graph validation and blueprint extraction."""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import counted_store_reads, grow_setup, random_setup
from kgmas import runtime
from kgmas.agents import emit_specs, generate_agents, spec_to_dict
from kgmas.cli import main
from kgmas.errors import BlueprintError, GenerationError, UnknownAssetError
from kgmas.rami import extract_blueprint, list_assets, validate_setup
from kgmas.runtime import Scenario, load_protocols
from kgmas.store import NamedGraphStore
from kgmas.terms import Iri, Literal, Triple, triple_key
from kgmas.vocab import (
    HAS_ASSET_KIND,
    HAS_CAPABILITY,
    HAS_COORDINATION_ROLE,
    HAS_ENDPOINT,
    HAS_MESSAGE_KIND,
    HAS_PROTOCOL,
    HAS_REALM,
    HAS_TOPIC,
    PUBLISHES_ON,
    REALM_DIGITAL,
    REALM_PHYSICAL,
    SETUP_GRAPH,
    SUBSCRIBES_TO,
    kgmas,
)
from kgmas.world import WarehouseWorld

TURTLEBOT = kgmas("Turtlebot")
ARM = kgmas("RoboticArm")


def load(text: str) -> NamedGraphStore:
    store = NamedGraphStore()
    store.load_turtle(SETUP_GRAPH, text)
    return store


def test_fixture_setup_is_valid(setup_store):
    report = validate_setup(setup_store, SETUP_GRAPH)
    assert report.ok, report.issues
    assert list_assets(setup_store, SETUP_GRAPH) == [ARM, TURTLEBOT]


def test_empty_graph_is_vacuously_valid():
    assert validate_setup(NamedGraphStore(), SETUP_GRAPH).ok


def rules_of(report) -> set[str]:
    return {issue.rule for issue in report.issues}


def test_missing_realm_flagged(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, HAS_REALM, kgmas("physical")))
    report = validate_setup(setup_store, SETUP_GRAPH)
    assert not report.ok
    assert "realm" in rules_of(report)


def test_two_realms_flagged(setup_store):
    setup_store.insert(SETUP_GRAPH, Triple(TURTLEBOT, HAS_REALM, kgmas("digital")))
    assert "realm" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_two_asset_kinds_flagged(setup_store):
    setup_store.insert(SETUP_GRAPH, Triple(TURTLEBOT, HAS_ASSET_KIND,
                                           kgmas("Robotic_Arm")))
    issues = validate_setup(setup_store, SETUP_GRAPH).issues
    assert [(i.rule, i.subject, i.message) for i in issues] == [
        ("asset-kind", TURTLEBOT.value, "expected one asset kind, found 2")]


def test_bogus_realm_value_flagged(setup_store):
    """The issue shows the realm found as Turtle text, an iri or a literal."""
    setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, HAS_REALM, kgmas("physical")))
    for value, shown in ((kgmas("imaginary"), "kgmas:imaginary"),
                         (Literal("physical"), '"physical"')):
        setup_store.insert(SETUP_GRAPH, Triple(TURTLEBOT, HAS_REALM, value))
        issues = validate_setup(setup_store, SETUP_GRAPH).issues
        assert [(i.rule, i.subject, i.message) for i in issues] == [
            ("realm", TURTLEBOT.value, f"realm must be physical or digital, found {shown}")]
        setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, HAS_REALM, value))


def test_unknown_scheme_flagged(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, HAS_PROTOCOL, Literal("ros+ws")))
    setup_store.insert(SETUP_GRAPH, Triple(TURTLEBOT, HAS_PROTOCOL, Literal("zigbee")))
    report = validate_setup(setup_store, SETUP_GRAPH)
    assert "binding" in rules_of(report)
    # but fine when the runtime actually knows that scheme
    wide = validate_setup(setup_store, SETUP_GRAPH,
                          known_schemes={"zigbee", "ros+ws"})
    assert wide.ok


def test_channel_without_topic_flagged(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(kgmas("TurtlebotPose"), HAS_TOPIC,
                                           Literal("/pose")))
    assert "channel" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_duplicate_channel_topic_flagged(setup_store):
    setup_store.insert(SETUP_GRAPH, Triple(TURTLEBOT, PUBLISHES_ON, kgmas("PoseCopy")))
    setup_store.insert(SETUP_GRAPH, Triple(kgmas("PoseCopy"), HAS_TOPIC,
                                           Literal("/pose")))
    setup_store.insert(SETUP_GRAPH, Triple(kgmas("PoseCopy"),
                                           kgmas("hasMessageKind"), kgmas("Pose")))
    assert "channel" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_channel_on_non_asset_flagged(setup_store):
    setup_store.insert(SETUP_GRAPH, Triple(kgmas("Ghost"), PUBLISHES_ON,
                                           kgmas("GhostChan")))
    assert "channel-owner" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_missing_capability_flagged(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, HAS_CAPABILITY,
                                           kgmas("MotionControl")))
    assert "capability" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_missing_role_flagged(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, HAS_COORDINATION_ROLE,
                                           kgmas("MoverRole")))
    assert "role" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_asset_outside_any_system_flagged(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(kgmas("WarehouseSystem"),
                                           kgmas("aggregates"), TURTLEBOT))
    assert "system" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_asset_in_two_systems_flagged(setup_store):
    setup_store.insert(SETUP_GRAPH, Triple(kgmas("OtherSystem"),
                                           kgmas("aggregates"), TURTLEBOT))
    assert "system" in rules_of(validate_setup(setup_store, SETUP_GRAPH))


def test_issue_order_is_deterministic(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, HAS_REALM, kgmas("physical")))
    setup_store.remove(SETUP_GRAPH, Triple(ARM, HAS_CAPABILITY,
                                           kgmas("GripperControl")))
    first = validate_setup(setup_store, SETUP_GRAPH).issues
    second = validate_setup(setup_store, SETUP_GRAPH).issues
    assert first == second
    assert [i.rule for i in first] == sorted(i.rule for i in first)


@pytest.mark.parametrize("predicate,removed,added", [
    (HAS_PROTOCOL, None, "mqtt"),
    (HAS_ENDPOINT, None, "elsewhere:1"),
    (HAS_ENDPOINT, "localhost:9090", ""),
    (HAS_PROTOCOL, "ros+ws", ""),
], ids=["two_schemes", "two_endpoints", "empty_endpoint", "empty_scheme"])
def test_binding_is_one_nonempty_declaration(setup_store, predicate, removed, added):
    """Scheme and endpoint come from one non-empty declaration each."""
    if removed is not None:
        setup_store.remove(SETUP_GRAPH, Triple(TURTLEBOT, predicate, Literal(removed)))
    setup_store.insert(SETUP_GRAPH, Triple(TURTLEBOT, predicate, Literal(added)))
    report = validate_setup(setup_store, SETUP_GRAPH)
    assert [issue.rule for issue in report.issues] == ["binding"]
    with pytest.raises(BlueprintError, match="communication layer"):
        extract_blueprint(setup_store, SETUP_GRAPH, TURTLEBOT)


# -- blueprints -------------------------------------------------------------


def test_blueprint_contents(setup_store):
    blueprint = extract_blueprint(setup_store, SETUP_GRAPH, TURTLEBOT)
    assert blueprint.agent_id == "turtlebot"
    assert blueprint.realm == "physical"
    assert blueprint.binding.scheme == "ros+ws"
    assert blueprint.binding.address == "localhost:9090"
    assert [(c.direction, c.topic) for c in blueprint.channels] == [
        ("publishes", "/pose"), ("subscribes", "/cmd_vel")]
    assert blueprint.capabilities == (kgmas("MotionControl"),)
    assert blueprint.coordination_role == kgmas("MoverRole")


def test_blueprint_unknown_asset(setup_store):
    with pytest.raises(UnknownAssetError):
        extract_blueprint(setup_store, SETUP_GRAPH, kgmas("Nobody"))


def test_blueprint_incomplete_layer_named(setup_store):
    setup_store.remove(SETUP_GRAPH, Triple(ARM, HAS_CAPABILITY,
                                           kgmas("GripperControl")))
    with pytest.raises(BlueprintError) as err:
        extract_blueprint(setup_store, SETUP_GRAPH, ARM)
    assert "capab" in str(err.value)


def test_blueprint_unchanged_by_unrelated_additions(setup_store):
    """Another asset's description must not leak into an existing blueprint."""
    before = extract_blueprint(setup_store, SETUP_GRAPH, TURTLEBOT)
    rng = random.Random(41)
    base = setup_store.dump_turtle(SETUP_GRAPH)
    grown, _ = grow_setup(rng, base, 0)
    store = load(grown)
    assert validate_setup(store, SETUP_GRAPH).ok
    assert extract_blueprint(store, SETUP_GRAPH, TURTLEBOT) == before


def test_setup_reads_each_node_once(monkeypatch):
    """Validation and extraction read each asset and each channel node
    once, at 2 and at 102 assets; validation's graph-wide reads do not
    grow with the assets."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    inputs = importlib.import_module("inputs")
    wide = {}
    for n in (0, 100):
        store = load(inputs.make_inputs("fleet", 1, fleet=n).setup_text)
        assets = list_assets(store, SETUP_GRAPH)
        channels = [t.object for t in store.triples(SETUP_GRAPH)
                    if t.predicate in (PUBLISHES_ON, SUBSCRIBES_TO)]
        assert len(assets) == n + 2 and len(channels) > len(assets)
        every_node = sorted(assets + channels, key=lambda node: node.value)
        with counted_store_reads(monkeypatch) as calls:
            assert validate_setup(store, SETUP_GRAPH).ok
            wide[n] = [call for call in calls if call[0] == "rows"]
            assert sorted((node for name, node in calls if name != "rows"),
                          key=lambda node: node.value) == every_node
            assert {name for name, _ in calls} == {"rows", "about"}
            calls.clear()
            for asset in assets:
                extract_blueprint(store, SETUP_GRAPH, asset)
            assert {name for name, _ in calls} == {"about"}
            assert sorted((node for _, node in calls), key=lambda node: node.value) == every_node
    assert wide[0] == wide[100]


def test_scenario_reads_each_setup_node_twice(monkeypatch):
    """Building a ``Scenario`` reads each asset and each channel node twice,
    once to validate and once to extract, at 2 and at 102 assets; every
    other read is the protocol loader's, the graph-wide reads do not grow
    with the assets, and ``instantiate`` reads nothing."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    inputs = importlib.import_module("inputs")
    instantiate = runtime.instantiate
    wide = {}
    for n in (0, 100):
        inp = inputs.make_inputs("fleet", 1, fleet=n)
        store = load(inp.setup_text)
        world = WarehouseWorld.from_fixture(json.loads(inp.world_text))
        nodes = list_assets(store, SETUP_GRAPH) + [
            t.object for t in store.triples(SETUP_GRAPH)
            if t.predicate in (PUBLISHES_ON, SUBSCRIBES_TO)]
        assert len(nodes) > 2 * (n + 2)
        instantiated = []
        with counted_store_reads(monkeypatch) as calls, monkeypatch.context() as patch:
            load_protocols(store, SETUP_GRAPH)
            loader = Counter(node for name, node in calls if name == "about")
            calls.clear()

            def counted(*args, **kwargs):
                before = len(calls)
                handle = instantiate(*args, **kwargs)
                instantiated.append(len(calls) - before)
                return handle
            patch.setattr(runtime, "instantiate", counted)
            scenario = Scenario(store, world, transport_overrides=inp.overrides)
        scenario.close()
        assert {name for name, _ in calls} == {"about", "rows"}
        assert Counter(node for name, node in calls if name == "about") == (
            Counter(nodes) + Counter(nodes) + loader)
        assert instantiated == [0] * (n + 2)
        wide[n] = [call for call in calls if call[0] == "rows"]
    assert wide[0] == wide[100]


def test_random_setups_validate_and_list(tmp_path):
    rng = random.Random(42)
    for _ in range(10):
        k = rng.randrange(0, 6)
        text, agent_ids = random_setup(rng, k)
        store = load(text)
        report = validate_setup(store, SETUP_GRAPH)
        assert report.ok, report.issues
        assets = list_assets(store, SETUP_GRAPH)
        assert sorted(a.local_name.lower() for a in assets) == agent_ids


# -- validation accepts exactly what generation builds ---------------------


def with_literal(triples, subject: Iri, predicate: Iri) -> list[Triple]:
    """The triples with the iri objects of one pair turned into literals."""
    return [Triple(t.subject, t.predicate, Literal(t.object.local_name))
            if (t.subject, t.predicate) == (subject, predicate) else t
            for t in triples]


def renamed(triples, old: Iri, new: Iri) -> list[Triple]:
    def swap(term):
        return new if term == old else term
    return [Triple(swap(t.subject), t.predicate, swap(t.object)) for t in triples]


# A second object for one of an asset's single-valued layers.
SECOND_OBJECTS = (
    (HAS_ASSET_KIND, kgmas("Conveyor")), (HAS_REALM, REALM_PHYSICAL),
    (HAS_REALM, REALM_DIGITAL), (HAS_PROTOCOL, Literal("mqtt")),
    (HAS_ENDPOINT, Literal("elsewhere:1")), (HAS_COORDINATION_ROLE, kgmas("SpareRole")))


def mutate(rng: random.Random, triples: list[Triple]) -> list[Triple]:
    """One seeded edit: drop a triple, turn an iri object into a literal,
    rename an asset to an iri whose agent id is reserved, give an asset a
    second kind, realm, scheme, endpoint or role, empty a literal, turn a
    channel into a literal, or drop a channel's message kind."""
    edit = rng.choice(("drop", "literal", "rename", "second", "empty",
                       "literal_channel", "no_message_kind"))
    if edit == "drop":
        gone = triples[rng.randrange(len(triples))]
        return [t for t in triples if t != gone]
    if edit in ("literal", "literal_channel"):
        pick = rng.choice([t for t in triples if isinstance(t.object, Iri) and (
            edit == "literal" or t.predicate in (PUBLISHES_ON, SUBSCRIBES_TO))])
        return [Triple(t.subject, t.predicate, Literal(t.object.local_name))
                if t == pick else t for t in triples]
    if edit == "empty":
        pick = rng.choice([t for t in triples if isinstance(t.object, Literal)])
        return [Triple(t.subject, t.predicate, Literal("")) if t == pick else t
                for t in triples]
    if edit == "no_message_kind":
        gone = rng.choice([t for t in triples if t.predicate == HAS_MESSAGE_KIND])
        return [t for t in triples if t != gone]
    assets = sorted({t.subject for t in triples if t.predicate == HAS_ASSET_KIND},
                    key=lambda a: a.value)
    if edit == "second":
        predicate, obj = rng.choice(SECOND_OBJECTS)
        return [*triples, Triple(rng.choice(assets), predicate, obj)]
    return renamed(triples, rng.choice(assets),
                   rng.choice((kgmas("Kg"), kgmas("Operator"))))


def store_of(triples) -> NamedGraphStore:
    store = NamedGraphStore()
    for triple in triples:
        store.insert(SETUP_GRAPH, triple)
    return store


def base_triples(store: NamedGraphStore) -> list[Triple]:
    return sorted(store.triples(SETUP_GRAPH), key=triple_key)


def test_validation_accepts_exactly_the_setups_generation_builds(setup_store,
                                                                 tmp_path):
    base = base_triples(setup_store)
    rng = random.Random(8)
    for case in range(300):
        store = store_of(mutate(rng, base))
        report = validate_setup(store, SETUP_GRAPH)
        if not report.ok:
            with pytest.raises(GenerationError) as err:
                generate_agents(store, SETUP_GRAPH)
            assert tuple(err.value.violations) == report.issues
            continue
        blueprints = generate_agents(store, SETUP_GRAPH)
        assert len(blueprints) == len(list_assets(store, SETUP_GRAPH))
        paths = emit_specs(blueprints, tmp_path / str(case))
        assert len(paths) == len(blueprints)
        for blueprint, path in zip(blueprints, paths):
            with open(path, encoding="utf-8") as fh:
                assert json.load(fh) == spec_to_dict(blueprint)


# Setups validation once passed although generation refused them (and, for
# a literal asset kind, crashed while emitting the specs).
DISAGREEMENTS = {
    "reserved_agent_id": (
        "agent-id", lambda ts: renamed(ts, TURTLEBOT, kgmas("Kg"))),
    "literal_role": (
        "role", lambda ts: with_literal(ts, TURTLEBOT, HAS_COORDINATION_ROLE)),
    "literal_capability": (
        "capability", lambda ts: with_literal(ts, TURTLEBOT, HAS_CAPABILITY)),
    "literal_asset_kind": (
        "asset-kind", lambda ts: with_literal(ts, TURTLEBOT, HAS_ASSET_KIND)),
}


@pytest.mark.parametrize("case", sorted(DISAGREEMENTS))
def test_validate_and_generate_give_one_answer(case, setup_store, tmp_path,
                                               capsys):
    rule, edit = DISAGREEMENTS[case]
    store = store_of(edit(base_triples(setup_store)))
    path = tmp_path / "setup.ttl"
    path.write_text(store.dump_turtle(SETUP_GRAPH), encoding="utf-8")
    validated = main(["validate", "--setup", str(path)])
    out = capsys.readouterr().out
    generated = main(["generate", "--setup", str(path),
                      "--emit", str(tmp_path / "specs")])
    err = capsys.readouterr().err
    assert validated == generated == 1
    assert f"{rule}\t" in out and f"{rule}\t" in err
    assert "Traceback" not in err


def test_edited_setups_keep_every_issue_and_spec(setup_store):
    """A seeded run of setups with one or two edits each, pinned by a digest
    of every validation issue, every spec ``generate_agents`` builds and
    every ``BlueprintError`` message, in order: how the reader reads the
    store must not change what it finds."""
    base = base_triples(setup_store)
    rng = random.Random(32)
    digest = hashlib.sha256()
    for _ in range(400):
        triples = base
        for _ in range(rng.randint(1, 2)):
            triples = mutate(rng, triples)
        store = store_of(triples)
        report = validate_setup(store, SETUP_GRAPH)
        try:
            specs = [spec_to_dict(bp) for bp in generate_agents(store, SETUP_GRAPH)]
        except GenerationError as err:
            assert tuple(err.violations) == report.issues
            specs = None
        refusals = []
        for asset in list_assets(store, SETUP_GRAPH):
            try:
                extract_blueprint(store, SETUP_GRAPH, asset)
            except BlueprintError as err:
                refusals.append(str(err))
        issues = [[i.rule, i.subject, i.message] for i in report.issues]
        digest.update(json.dumps([issues, specs, refusals], sort_keys=True).encode())
    assert digest.hexdigest() == (
        "a08bf13f40818c36b72c698c8fe5b6ba355207fe869b36932019b27df9af9f10")
