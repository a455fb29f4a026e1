"""Store behavior checked against plain-set replays and a nested-loop matcher."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from helpers import (bgp_oracle, random_pattern, random_render_graph, random_triples,
                     reference_serialize)
from kgmas.errors import TurtleParseError, ValidationError
from kgmas.store import NamedGraphStore, objects_of
from kgmas.terms import Iri, Literal, Pattern, Triple, Variable, term_key, triple_key
from kgmas.turtle import serialize_turtle

NS = "http://kgmas.example/vocab#"


def iri(local: str) -> Iri:
    return Iri(NS + local)


def t(s: str, p: str, o) -> Triple:
    obj = o if not isinstance(o, str) else iri(o)
    return Triple(iri(s), iri(p), obj)


def test_insert_remove_and_revision_replay():
    """Random op sequence must agree with a plain set; every call is one
    revision step, whether or not it changes the graph."""
    rng = random.Random(11)
    universe = [t(f"s{i}", f"p{i % 3}", f"o{i % 5}") for i in range(12)]
    store = NamedGraphStore()
    # A write that changes nothing is still a revision step.
    assert store.remove("g", universe[0]) is False
    assert (store.revision, store.triples("g")) == (1, frozenset())
    shadow: set[Triple] = set()
    for revision in range(2, 402):
        triple = rng.choice(universe)
        if rng.random() < 0.5:
            assert store.insert("g", triple) == (triple not in shadow)
            shadow.add(triple)
        else:
            assert store.remove("g", triple) == (triple in shadow)
            shadow.discard(triple)
        assert store.triples("g") == frozenset(shadow)
        assert store.revision == revision


def test_atomic_update_replay():
    rng = random.Random(12)
    universe = [t(f"s{i}", "p", f"o{i}") for i in range(10)]
    store = NamedGraphStore()
    shadow: set[Triple] = set()
    revision = 0
    for _ in range(200):
        removals = rng.sample(universe, rng.randrange(0, 4))
        insertions = rng.sample(universe, rng.randrange(0, 4))
        store.atomic_update("g", removals, insertions)
        shadow.difference_update(removals)
        shadow.update(insertions)
        # nonempty arguments always count as a write, even when idempotent
        if removals or insertions:
            revision += 1
        assert store.triples("g") == frozenset(shadow)
        assert store.revision == revision


def test_atomic_update_identical_state_still_bumps():
    store = NamedGraphStore()
    store.insert("g", t("a", "p", "b"))
    before = store.revision
    store.atomic_update("g", [], [t("a", "p", "b")])
    assert store.revision == before + 1
    assert len(store.triples("g")) == 1


def test_atomic_update_empty_args_is_a_noop():
    store = NamedGraphStore()
    before = store.revision
    store.atomic_update("g", [], [])
    assert store.revision == before


def test_replace_swaps_all_values_for_given_predicates():
    store = NamedGraphStore()
    store.insert("g", t("robot", "status", Literal("idle")))
    store.insert("g", t("robot", "pos", Literal("P1")))
    store.insert("g", t("other", "status", Literal("idle")))
    store.replace("g", iri("robot"), {iri("status"): [Literal("busy")]})
    statuses = [tr for tr in store.triples("g")
                if tr.subject == iri("robot") and tr.predicate == iri("status")]
    assert statuses == [t("robot", "status", Literal("busy"))]
    # untouched predicate and other subjects survive
    assert t("robot", "pos", Literal("P1")) in store.triples("g")
    assert t("other", "status", Literal("idle")) in store.triples("g")


def test_replace_with_empty_values_deletes():
    store = NamedGraphStore()
    store.insert("g", t("robot", "holds", "pallet"))
    store.replace("g", iri("robot"), {iri("holds"): []})
    assert not any(tr.predicate == iri("holds") for tr in store.triples("g"))


def test_replace_checks_every_term_before_writing():
    store = NamedGraphStore()
    a, pos = iri("a"), iri("atPosition")
    store.insert("g", t("a", "atPosition", Literal("P0")))
    before, held = store.revision, store.triples("g")
    with pytest.raises(ValidationError):
        store.replace("g", a, {pos: [Literal("P1")], "notiri": []})
    with pytest.raises(ValidationError):
        store.replace("g", "notiri", {pos: []})
    assert store.revision == before
    assert store.triples("g") == held

    # Each write is one revision step; objects come back deduplicated in term order.
    p1, p2, b = Literal("P1"), Literal("P2"), iri("b")
    for objects, expected in (([p2, b, p1, p2, b], (b, p1, p2)),
                              ({p2, p1}, (p1, p2)),
                              ((o for o in [p2, Literal("P2", iri("dt")), p2]),
                               (p2, Literal("P2", iri("dt")))),
                              ([p1], (p1,)),
                              ([], ())):
        revision = store.revision
        assert store.replace("g", a, {pos: objects}) == revision + 1
        assert objects_of(store.about("g", a), pos) == expected
    assert store.replace("g", a, {}) == store.revision


def test_replace_one_object_path_checks_like_the_rest():
    """A one-object fact is built directly, with the same checks, the same
    error order and the same entry as any other iterable of that object."""
    store = NamedGraphStore()
    a, pos, p1 = iri("a"), iri("atPosition"), Literal("P1")
    store.insert("g", t("a", "atPosition", Literal("P0")))
    before, held = store.revision, store.triples("g")
    with pytest.raises(ValidationError, match="triple object"):
        store.replace("g", a, {pos: ["P1"]})
    with pytest.raises(ValidationError, match="replace needs iris"):
        store.replace("g", a, {pos: ["P1"], "notiri": [p1]})
    assert store.revision == before
    assert store.triples("g") == held

    for objects in ([p1], (p1,), {p1}, (o for o in [p1])):
        store.replace("g", a, {pos: [Literal("P0")]})
        revision = store.revision
        assert store.replace("g", a, {pos: objects}) == revision + 1
        assert store.about("g", a) == {pos.value: (Triple(a, pos, p1),)}


def test_about_copies_one_subjects_entries():
    store = NamedGraphStore()
    store.atomic_update("g", [], [t("a", "p", "c"), t("a", "p", "b"), t("a", "q", "b"),
                                  t("b", "p", "a")])
    facts = store.about("g", iri("a"))
    assert facts == {NS + "p": (t("a", "p", "b"), t("a", "p", "c")),
                     NS + "q": (t("a", "q", "b"),)}
    assert objects_of(facts, iri("p")) == (iri("b"), iri("c"))
    assert objects_of(facts, iri("r")) == ()
    facts.clear()  # a copy: the store keeps its entries
    assert store.about("g", iri("a")) != {}
    assert store.about("g", iri("c")) == store.about("unknown", iri("a")) == {}


def test_graphs_are_independent():
    store = NamedGraphStore()
    store.insert("one", t("a", "p", "b"))
    store.insert("two", t("c", "p", "d"))
    assert store.triples("one") == frozenset({t("a", "p", "b")})
    assert store.triples("two") == frozenset({t("c", "p", "d")})
    assert store.about("one", iri("c")) == store.about("two", iri("a")) == {}


def test_load_turtle_counts_and_bumps():
    store = NamedGraphStore()
    n = store.load_turtle("g", f'<{NS}a> <{NS}p> <{NS}b> .\n<{NS}a> <{NS}p> <{NS}b> .')
    assert n == 1
    assert store.revision == 1
    before = store.revision
    assert store.load_turtle("g", "# nothing but a comment\n") == 0
    assert store.revision == before


def test_load_turtle_error_rolls_back():
    store = NamedGraphStore()
    store.insert("g", t("keep", "p", "me"))
    before = store.revision
    bad = f"<{NS}x> <{NS}p> <{NS}y> .\n<{NS}broken "
    with pytest.raises(TurtleParseError):
        store.load_turtle("g", bad)
    assert store.triples("g") == frozenset({t("keep", "p", "me")})
    assert store.revision == before


def test_index_reads_agree_with_scans_under_random_writes():
    """After every write, index reads equal a scan of ``triples``, a write
    call that names something is one revision step and lists its graph,
    and a frozenset taken before the write is unchanged by it. Writes
    repeat triples: an update may remove and re-insert one or insert one
    twice, and a document may state one twice or one already held."""
    rng = random.Random(16)
    subjects = [iri(f"s{i}") for i in range(4)]
    predicates = [iri(f"p{i}") for i in range(3)]
    values = [iri("o0"), iri("o1"), Literal("a"), Literal("b"), Literal("a", iri("dt"))]
    universe = [Triple(s, p, o) for s in subjects for p in predicates for o in values]
    store = NamedGraphStore()
    shadow: dict[str, set[Triple]] = {}
    revision = 0
    for _ in range(600):
        g = rng.choice(("g", "h"))
        held = store.triples(g)
        expected_held = frozenset(shadow.get(g, ()))
        op = rng.choice(("insert", "remove", "atomic_update", "replace", "load_turtle"))
        if op in ("insert", "remove"):
            triple = rng.choice(universe)
            present = triple in shadow.get(g, ())
            if op == "insert":
                assert store.insert(g, triple) == (not present)
                shadow.setdefault(g, set()).add(triple)
            else:
                assert store.remove(g, triple) == present
                shadow.setdefault(g, set()).discard(triple)
            revision += 1
        elif op == "atomic_update":
            removals = rng.sample(universe, rng.randrange(0, 3))
            insertions = rng.sample(universe, rng.randrange(0, 3))
            if removals and rng.random() < 0.3:  # removed and put back
                insertions.append(rng.choice(removals))
            if insertions and rng.random() < 0.3:  # inserted twice
                insertions.append(rng.choice(insertions))
            assert store.atomic_update(g, removals, insertions) == (
                revision + 1 if removals or insertions else revision)
            if removals or insertions:
                graph = shadow.setdefault(g, set())
                graph.difference_update(removals)
                graph.update(insertions)
                revision += 1
        elif op == "replace":
            subject = rng.choice(subjects)
            facts = {p: rng.sample(values, rng.randrange(0, 3))
                     for p in rng.sample(predicates, rng.randrange(0, 3))}
            store.replace(g, subject, facts)
            if facts:
                graph = shadow.setdefault(g, set())
                graph -= {t for t in graph
                          if t.subject == subject and t.predicate in facts}
                graph |= {Triple(subject, p, o) for p, objs in facts.items() for o in objs}
                revision += 1
        else:
            chosen = rng.sample(universe, rng.randrange(0, 4))
            held_now = sorted(shadow.get(g, ()), key=triple_key)
            if held_now and rng.random() < 0.5:
                chosen.append(rng.choice(held_now))
            document = serialize_turtle(chosen)
            if chosen and rng.random() < 0.5:  # one statement twice
                document += serialize_turtle([rng.choice(chosen)]).splitlines()[-1] + "\n"
            added = len(set(chosen) - shadow.get(g, set()))
            assert store.load_turtle(g, document) == added
            if chosen:
                shadow.setdefault(g, set()).update(chosen)
                revision += 1

        assert held == expected_held, f"snapshot taken before {op} changed"
        assert store.revision == revision
        for name in ("g", "h", "unknown"):
            triples = store.triples(name)
            assert triples == frozenset(shadow.get(name, ()))
            carrying = {p: {t.subject for t in triples if t.predicate == p}
                        for p in predicates}
            def entry(s, p):
                return tuple(sorted((t for t in triples if t.subject == s and t.predicate == p),
                                    key=lambda t: term_key(t.object)))
            for p in predicates:
                assert [row[0] for row in store.rows(name, p)] == sorted(
                    carrying[p], key=lambda s: s.value)
                for s in subjects:
                    assert objects_of(store.about(name, s), p) == tuple(
                        t.object for t in entry(s, p))
            for s in subjects:
                assert store.about(name, s) == {p.value: entry(s, p) for p in predicates
                                                if entry(s, p)}
            p, q = rng.sample(predicates, 2)
            assert store.rows(name, p, q) == [(s, entry(s, p), entry(s, q)) for s in sorted(
                carrying[p] & carrying[q], key=lambda s: s.value)]
            p, q, r = rng.sample(predicates, 3)
            assert store.rows(name, p, q, r) == [
                (s, entry(s, p), entry(s, q), entry(s, r)) for s in sorted(
                    carrying[p] & carrying[q] & carrying[r], key=lambda s: s.value)]
            if triples:
                patterns = [random_pattern(rng, triples) for _ in range(2)]
                assert store.query(name, patterns) == bgp_oracle(triples, patterns)


def test_query_single_pattern():
    store = NamedGraphStore()
    store.insert("g", t("a", "knows", "b"))
    store.insert("g", t("a", "knows", "c"))
    store.insert("g", t("b", "knows", "c"))
    rows = store.query("g", [Pattern(iri("a"), iri("knows"), Variable("x"))])
    assert [row["x"] for row in rows] == [iri("b"), iri("c")]


def test_query_join_on_shared_variable():
    store = NamedGraphStore()
    store.insert("g", t("a", "knows", "b"))
    store.insert("g", t("b", "knows", "c"))
    store.insert("g", t("c", "knows", "a"))
    rows = store.query("g", [
        Pattern(Variable("x"), iri("knows"), Variable("y")),
        Pattern(Variable("y"), iri("knows"), iri("c")),
    ])
    assert rows == [{"x": iri("a"), "y": iri("b")}]


def test_query_empty_pattern_list_rejected():
    store = NamedGraphStore()
    with pytest.raises(ValidationError):
        store.query("g", [])


@pytest.mark.parametrize("call, message", [
    (lambda s: s.insert("", t("a", "b", "c")), "bad graph id: ''"),
    (lambda s: s.triples(7), "bad graph id: 7"),
    (lambda s: s.insert("g", (iri("a"), iri("b"), iri("c"))),
     f"not a triple: {(iri('a'), iri('b'), iri('c'))!r}"),
    (lambda s: s.atomic_update("g", [], [t("a", "b", "c"), "x"]), "not a triple: 'x'"),
    (lambda s: s.query("g", [Pattern(Variable("x"), iri("b"), iri("c")), t("a", "b", "c")]),
     f"not a pattern: {t('a', 'b', 'c')!r}"),
], ids=["empty_graph_id", "int_graph_id", "tuple_write", "text_write", "triple_query"])
def test_store_refusals_are_pinned(call, message):
    store = NamedGraphStore()
    with pytest.raises(ValidationError) as refusal:
        call(store)
    assert str(refusal.value) == message
    assert store.revision == 0


def test_query_matches_nested_loop_oracle():
    rng = random.Random(13)
    for round_no in range(25):
        triples = random_triples(rng, rng.randint(5, 120))
        store = NamedGraphStore()
        store.atomic_update("g", [], sorted(triples, key=str))
        patterns = [random_pattern(rng, triples)
                    for _ in range(rng.randint(1, 3))]
        got = store.query("g", patterns)
        expected = bgp_oracle(triples, patterns)
        assert got == expected, f"round {round_no} diverged from oracle"


def test_query_deterministic_order():
    rng = random.Random(14)
    triples = random_triples(rng, 60)
    store = NamedGraphStore()
    store.atomic_update("g", [], sorted(triples, key=str))
    pattern = [Pattern(Variable("s"), Variable("p"), Variable("o"))]
    assert store.query("g", pattern) == store.query("g", pattern)


def test_dump_and_reload_identity():
    rng = random.Random(15)
    triples = random_triples(rng, 40)
    store = NamedGraphStore()
    store.atomic_update("g", [], sorted(triples, key=str))
    text = store.dump_turtle("g")
    other = NamedGraphStore()
    other.load_turtle("h", text)
    assert other.triples("h") == store.triples("g")


@pytest.mark.parametrize("seed", range(4))
def test_dump_renders_the_index_as_the_reference_renders_its_triples(seed):
    """``dump_turtle`` walks the index as the writes left it, so after every
    write of a seeded sequence it equals the reference rendering of
    ``triples`` byte for byte; so does a graph that removals emptied, and an
    unknown graph is the prefixes alone."""
    rng = random.Random(seed)
    universe = random_render_graph(rng, 80)
    subjects = sorted({t.subject for t in universe})
    predicates = sorted({t.predicate for t in universe})
    objects = sorted({t.object for t in universe}, key=term_key)
    store = NamedGraphStore()
    for _ in range(300):
        g = rng.choice(("g", "h", "k"))
        held = sorted(store.triples(g), key=triple_key)
        op = rng.choice(("insert", "remove", "atomic_update", "replace", "load_turtle"))
        if op == "insert":
            store.insert(g, rng.choice(universe))
        elif op == "remove":
            store.remove(g, rng.choice(held or universe))
        elif op == "atomic_update":
            removals = rng.sample(held, min(len(held), rng.randrange(0, 4)))
            store.atomic_update(g, removals, rng.sample(universe, rng.randrange(0, 4)))
        elif op == "replace":  # entries of several objects, given in any order
            store.replace(g, rng.choice(subjects),
                          {p: rng.sample(objects, rng.randrange(0, 5))
                           for p in rng.sample(predicates, rng.randrange(1, 3))})
        else:
            store.load_turtle(g, reference_serialize(rng.sample(universe, rng.randrange(9))))
        assert store.dump_turtle(g) == reference_serialize(store.triples(g)), op

    store.load_turtle("e", reference_serialize(universe))
    held = sorted(store.triples("e"), key=triple_key)
    store.atomic_update("e", held[::2], ())
    for triple in held[1::2]:
        store.remove("e", triple)
    for name in ("g", "h", "k", "e", "unknown"):
        assert store.dump_turtle(name) == reference_serialize(store.triples(name))
    assert store.dump_turtle("e") == store.dump_turtle("unknown") == reference_serialize([])


@pytest.mark.parametrize("writer", ["replace", "atomic_update"])
def test_a_dump_shows_one_revision_while_a_writer_flips(writer):
    """A dump copies the index under the lock, so a write running beside it
    shows whole or not at all: a ``replace`` of one subject's two entries, or
    an ``atomic_update`` of two subjects that sort far apart."""
    store = NamedGraphStore()
    store.atomic_update("g", [], random_triples(random.Random(31), 200))
    if writer == "replace":
        flips = [{iri("status"): [Literal("idle"), Literal("ready")], iri("at"): [iri("P1")]},
                 {iri("status"): [Literal("busy")], iri("at"): [iri("P2"), iri("P3")]}]

        def write(facts):
            store.replace("g", iri("robot"), facts)
    else:
        flips = [[t("arm", "status", Literal(v)), t("robot", "status", Literal(v))]
                 for v in ("idle", "busy")]

        def write(triples):
            store.atomic_update("g", flips[0] + flips[1], triples)
    documents = []
    for flip in flips:
        write(flip)
        documents.append(reference_serialize(store.triples("g")))
    stop = threading.Event()

    def flip_until_stopped():
        while not stop.is_set():
            for flip in flips:
                write(flip)

    thread = threading.Thread(target=flip_until_stopped)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        dumps = [store.dump_turtle("g") for _ in range(200)]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(dump in documents for dump in dumps)
