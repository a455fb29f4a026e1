"""Test utilities: independent oracles and random input builders.

The oracles deliberately use the dumbest correct algorithm available
(full enumeration, pairwise scans) so they share no code paths with the
implementations they judge.
"""

from __future__ import annotations

import contextlib
import functools
import random
from pathlib import Path

from kgmas.store import NamedGraphStore
from kgmas.terms import Iri, Literal, Pattern, Triple, Variable, term_key, triple_key
from kgmas.turtle import parse_turtle
from kgmas.vocab import (
    ACTION_KIND,
    AT_POSITION,
    CONTENT_TEMPLATE,
    HAS_GRIPPER_STATE,
    HAS_JOINT_STATES,
    HAS_REALM,
    HAS_STATUS,
    HAS_STEP,
    HOLDS,
    KIND_PERFORM_ACTION,
    KIND_QUERY_NEXT,
    KIND_REPORT_EVENT,
    KIND_SEND_REQUEST,
    REALMS,
    STEP_INDEX,
    STEP_ROLE,
    TARGET_ROLE,
    XSD_INTEGER,
    kgmas,
)
from kgmas.world import KIND_ROBOTIC_ARM

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

NS = "http://kgmas.example/vocab#"
XSD = "http://www.w3.org/2001/XMLSchema#"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def setup_with_step_inside_pair() -> str:
    """The fixture setup with a mover query step between step 3 (a perform)
    and its report, which becomes step 5."""
    text = fixture_text("fig3_setup.ttl")
    for index in (7, 6, 5, 4):
        text = text.replace(f"MovePalletStep{index}", f"MovePalletStep{index + 1}")
        text = text.replace(f'"{index}"^^xsd:integer', f'"{index + 1}"^^xsd:integer')
    return text + (
        "kgmas:MovePalletProtocol kgmas:hasStep kgmas:MovePalletStep4 .\n"
        'kgmas:MovePalletStep4 kgmas:stepIndex "4"^^xsd:integer .\n'
        "kgmas:MovePalletStep4 kgmas:stepRole kgmas:MoverRole .\n"
        "kgmas:MovePalletStep4 kgmas:actionKind kgmas:queryNext .\n")


def setup_with_broken_protocol() -> str:
    """The fixture setup plus a ``stack_pallet`` protocol whose one step has
    no index, so that protocol does not load and ``move_pallet`` still does."""
    return fixture_text("fig3_setup.ttl") + (
        'kgmas:StackPalletProtocol kgmas:forTask "stack_pallet" .\n'
        "kgmas:StackPalletProtocol kgmas:bindsRole kgmas:PlacerRole .\n"
        "kgmas:StackPalletProtocol kgmas:hasStep kgmas:StackPalletStep1 .\n"
        "kgmas:StackPalletStep1 kgmas:stepRole kgmas:PlacerRole .\n"
        "kgmas:StackPalletStep1 kgmas:actionKind kgmas:queryNext .\n")


# -- random protocols over the fixture's roles ------------------------------


_STEP_KINDS = (KIND_QUERY_NEXT, KIND_SEND_REQUEST, KIND_PERFORM_ACTION, KIND_REPORT_EVENT)
_ROLES = (kgmas("MoverRole"), kgmas("PlacerRole"))
_TEMPLATES = {
    KIND_PERFORM_ACTION: ('{"from":"{from}","to":"cell:3,2"}',
                          '{"from":"{from}","to":"{to}"}'),
    KIND_REPORT_EVENT: ('{"event":"pallet_delivered"}', '{"event":"pallet_placed"}'),
}


def setup_without_steps() -> list[Triple]:
    """The fixture setup's triples without the steps of its protocol."""
    return list(_setup_without_steps())


@functools.cache
def _setup_without_steps() -> tuple[Triple, ...]:
    return tuple(t for t in parse_turtle(fixture_text("fig3_setup.ttl"))
                 if t.predicate != HAS_STEP and "MovePalletStep" not in t.subject.value)


def protocol_step_triples(steps) -> list[Triple]:
    """Triples for the fixture protocol's steps, given in order as
    (kind, role, target role or None, template text or None)."""
    protocol = kgmas("MovePalletProtocol")
    triples = []
    for index, (kind, role, target, template) in enumerate(steps, start=1):
        step = kgmas(f"FuzzStep{index}")
        triples += [Triple(protocol, HAS_STEP, step),
                    Triple(step, STEP_INDEX, Literal(str(index), XSD_INTEGER)),
                    Triple(step, STEP_ROLE, role),
                    Triple(step, ACTION_KIND, kind)]
        if target is not None:
            triples.append(Triple(step, TARGET_ROLE, target))
        if template is not None:
            triples.append(Triple(step, CONTENT_TEMPLATE, Literal(template)))
    return triples


def random_protocol_steps(rng: random.Random) -> list[Triple]:
    """Triples of 1-7 random steps for the fixture's ``move_pallet`` protocol.

    Each step draws one of the four kinds and one of the fixture's two
    roles. A request draws a target role, which may be its own; a perform
    or a report draws a template, which may be missing. Three times in four
    a perform is followed by its own report, so long protocols that load
    are common.
    """
    steps = []
    kind = role = None
    for _ in range(rng.randint(1, 7)):
        if kind == KIND_PERFORM_ACTION and rng.random() < 0.75:
            kind, template = KIND_REPORT_EVENT, rng.choice(_TEMPLATES[KIND_REPORT_EVENT])
        else:
            kind, role = rng.choice(_STEP_KINDS), rng.choice(_ROLES)
            template = rng.choice(_TEMPLATES.get(kind, ()) + (None,))
        target = rng.choice(_ROLES) if kind == KIND_SEND_REQUEST else None
        steps.append((kind, role, target, template))
    return protocol_step_triples(steps)


_QUERY = '{"query":"next_action","task":"{task}"}'
_REQUEST = '{"task":"{task}","from":"{from}","to":"{to}"}'
_MOVER, _PLACER = _ROLES


def _token(kind, role, target=None, template=None):
    return ((kind, role, target, template),)


# Named protocol fragments. A letter names the step kind (query, send request,
# perform, report), the next one its role (Mover, Placer), ``→X`` a target
# role; each carries the fixture's template for its kind and role, except
# ``rM-``, a report with no template.
PROTOCOL_TOKENS = {
    "qM": _token(KIND_QUERY_NEXT, _MOVER, template=_QUERY),
    "qP": _token(KIND_QUERY_NEXT, _PLACER, template=_QUERY),
    "qM→P": _token(KIND_QUERY_NEXT, _MOVER, _PLACER, _QUERY),
    "sM": _token(KIND_SEND_REQUEST, _MOVER, template=_REQUEST),
    "sM→M": _token(KIND_SEND_REQUEST, _MOVER, _MOVER, _REQUEST),
    "sM→P": _token(KIND_SEND_REQUEST, _MOVER, _PLACER, _REQUEST),
    "sP→M": _token(KIND_SEND_REQUEST, _PLACER, _MOVER, _REQUEST),
    "pM": _token(KIND_PERFORM_ACTION, _MOVER, template=_TEMPLATES[KIND_PERFORM_ACTION][0]),
    "pP": _token(KIND_PERFORM_ACTION, _PLACER, template=_TEMPLATES[KIND_PERFORM_ACTION][1]),
    "rM": _token(KIND_REPORT_EVENT, _MOVER, template=_TEMPLATES[KIND_REPORT_EVENT][0]),
    "rP": _token(KIND_REPORT_EVENT, _PLACER, template=_TEMPLATES[KIND_REPORT_EVENT][1]),
    "rM-": _token(KIND_REPORT_EVENT, _MOVER),
}
PROTOCOL_TOKENS["pM rM"] = PROTOCOL_TOKENS["pM"] + PROTOCOL_TOKENS["rM"]
PROTOCOL_TOKENS["pP rP"] = PROTOCOL_TOKENS["pP"] + PROTOCOL_TOKENS["rP"]

# Each perform comes with its report: most of what loads is built from these.
PAIRED_ALPHABET = ("qM", "qP", "sM→P", "sP→M", "pM rM", "pP rP")
# Every token is one step, so malformed single steps show up too.
ONE_STEP_ALPHABET = ("qM", "qP", "sM→P", "sP→M", "sM→M", "sM", "qM→P",
                     "pM", "pP", "rM", "rP", "rM-")


def token_sequences(alphabet, max_steps: int):
    """Every sequence of ``alphabet``'s tokens with 1 to ``max_steps`` steps,
    fewer steps first, then in alphabet order."""
    def exactly(steps):
        if steps == 0:
            yield ()
            return
        for name in alphabet:
            size = len(PROTOCOL_TOKENS[name])
            if size <= steps:
                for rest in exactly(steps - size):
                    yield (name, *rest)

    for steps in range(1, max_steps + 1):
        yield from exactly(steps)


def token_steps(names) -> list[tuple]:
    """The steps of a token sequence, for ``protocol_step_triples``."""
    return [step for name in names for step in PROTOCOL_TOKENS[name]]


def put_pallet_back(world, pallet_id: str = "Pallet1", station: str = "P1") -> None:
    """Lift a pallet that lies on the grid and set it down on a station.

    This edits the world's state directly, between tasks: the fixture's arm
    cannot carry a pallet back, so several ``move_pallet`` tasks on one
    scenario need the pallet returned by hand. The world senses only what
    ``apply`` and ``step`` change, so the data graph and the arm's
    ``pallets_in_reach`` keep the old cell until the pallet next moves.
    """
    cells = world._pallet_by_cell
    del cells[next(cell for cell, held in cells.items() if held == pallet_id)]
    cells[world.stations[station]] = pallet_id


# -- counting store reads ---------------------------------------------------


_STORE_WRITES = frozenset({"insert", "remove", "atomic_update", "replace", "load_turtle"})


@contextlib.contextmanager
def counted_store_reads(monkeypatch):
    """Count the calls of every ``NamedGraphStore`` read method while open.

    Yields a list that gains one ``(method name, first argument after the
    graph id)`` pair per call, so a node read is ``("about", node)``.
    """
    calls = []

    def counted(name, read):
        @functools.wraps(read)
        def wrapper(*args, **kwargs):  # (store, graph id, first argument, ...)
            calls.append((name, args[2] if len(args) > 2 else None))
            return read(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name, method in vars(NamedGraphStore).items():
            if callable(method) and name[0] != "_" and name not in _STORE_WRITES:
                patch.setattr(NamedGraphStore, name, counted(name, method))
        yield calls


# -- brute-force pattern matching ------------------------------------------


def bgp_oracle(triples, patterns) -> list[dict]:
    """Nested-loop evaluation of a basic graph pattern, no indexes."""
    def match_one(pattern: Pattern, triple: Triple, binding: dict):
        extended = dict(binding)
        for slot, value in ((pattern.subject, triple.subject),
                            (pattern.predicate, triple.predicate),
                            (pattern.object, triple.object)):
            if isinstance(slot, Variable):
                if slot.name in extended:
                    if extended[slot.name] != value:
                        return None
                else:
                    extended[slot.name] = value
            elif slot != value:
                return None
        return extended

    solutions = [{}]
    for pattern in patterns:
        solutions = [extended
                     for binding in solutions
                     for triple in triples
                     if (extended := match_one(pattern, triple, binding)) is not None]

    def key(binding: dict):
        return tuple((name, term_key(binding[name])) for name in sorted(binding))

    unique = {key(b): b for b in solutions}
    return [unique[k] for k in sorted(unique)]


# -- pairwise consistency scan ---------------------------------------------


def consistency_oracle(placements) -> list[tuple[str, str, str, str]]:
    """Expected violations for (entity_iri, realm, position) rows.

    Returns (rule, first, second, position) tuples ordered like the
    checker: by position, then by entity pair.
    """
    out = []
    for position in sorted({p for _, _, p in placements}):
        here = sorted((e, r) for e, r, p in placements if p == position)
        for i in range(len(here)):
            for j in range(i + 1, len(here)):
                realms = {here[i][1], here[j][1]}
                if realms == {"physical"}:
                    rule = "physical_colocation"
                elif realms == {"physical", "digital"}:
                    rule = "physical_digital_colocation"
                else:
                    continue
                out.append((rule, here[i][0], here[j][0], position))
    return out


def consistency_scan(store, graph_id) -> list[tuple[str, str, str, str]]:
    """Reference co-location check: a per-entity scan of the graph's triples.

    An entity is a subject with both a realm and a position. Its realm is
    the last known realm iri in term order; unknown iris and literals are
    no realm. Only literal positions count. Pairs come from the oracle.
    """
    triples = store.triples(graph_id)

    def values(subject, predicate):
        return sorted((t.object for t in triples
                       if t.subject == subject and t.predicate == predicate), key=term_key)

    placements = []
    for entity in {t.subject for t in triples}:
        realms = [REALMS[r] for r in values(entity, HAS_REALM) if r in REALMS]
        for position in values(entity, AT_POSITION):
            if realms and isinstance(position, Literal):
                placements.append((entity.value, realms[-1], position.lexical))
    return consistency_oracle(placements)


# -- device and pallet state read straight off the world --------------------


def world_state_facts(world, assets: dict) -> dict:
    """What the data graph must say about every device and pallet.

    ``assets`` maps device id to asset iri. A device is busy while its
    world queue holds a command. Returns (subject, predicate) -> set of
    objects for every mirrored predicate of those subjects.
    """
    expected = {}
    for device_id, asset in assets.items():
        device = world.devices[device_id]
        busy = world.device_busy(device_id)
        x, y = device.cell
        label = {tuple(c): name for name, c in world.stations.items()}.get(
            (x, y), f"cell:{x},{y}")
        arm = device.kind == KIND_ROBOTIC_ARM
        facts = {
            HAS_STATUS: {Literal("busy" if busy else "idle")},
            AT_POSITION: {Literal(label)},
            HOLDS: {kgmas(device.holding)} if device.holding else set(),
            HAS_JOINT_STATES: ({Literal(",".join(f"{round(j, 6):g}"
                                                 for j in device.joints))}
                               if arm else set()),
            HAS_GRIPPER_STATE: {Literal(device.gripper)} if arm else set(),
        }
        expected.update(((asset, p), objects) for p, objects in facts.items())
    for pallet_id, position in world.pallet_positions().items():
        expected[(kgmas(pallet_id), AT_POSITION)] = {Literal(position)}
    return expected


def graph_facts(triples, keys) -> dict:
    """(subject, predicate) -> set of objects in ``triples``, for ``keys``."""
    found = {key: set() for key in keys}
    for t in triples:
        if (t.subject, t.predicate) in found:
            found[(t.subject, t.predicate)].add(t.object)
    return found


# -- random input builders --------------------------------------------------


SCHEMES = ("ros+ws", "rest+http", "mqtt")
ASSET_KINDS = ("Mobile_Robot", "Robotic_Arm", "Conveyor", "Camera", "Agv")


def random_asset_block(rng: random.Random, name: str) -> list[str]:
    """Turtle statements for one complete, valid asset description."""
    kind = rng.choice(ASSET_KINDS)
    realm = rng.choice(("physical", "digital"))
    scheme = rng.choice(SCHEMES)
    endpoint = f"host{rng.randrange(4)}:{9000 + rng.randrange(100)}"
    lines = [
        f"kgmas:{name} kgmas:hasAssetKind kgmas:{kind} .",
        f"kgmas:{name} kgmas:hasRealm kgmas:{realm} .",
        f'kgmas:{name} kgmas:hasProtocol "{scheme}" .',
        f'kgmas:{name} kgmas:hasEndpoint "{endpoint}" .',
        f"kgmas:{name} kgmas:hasCoordinationRole kgmas:{name}Role .",
    ]
    for c in range(rng.randint(1, 3)):
        channel = f"{name}Channel{c}"
        direction = rng.choice(("publishesOn", "subscribesTo"))
        lines.append(f"kgmas:{name} kgmas:{direction} kgmas:{channel} .")
        lines.append(f'kgmas:{channel} kgmas:hasTopic "/{name.lower()}/t{c}" .')
        lines.append(f"kgmas:{channel} kgmas:hasMessageKind kgmas:Msg{c} .")
    for c in range(rng.randint(1, 2)):
        lines.append(f"kgmas:{name} kgmas:hasCapability kgmas:{name}Cap{c} .")
    return lines


def random_setup(rng: random.Random, k: int) -> tuple[str, list[str]]:
    """A valid setup graph with k assets; returns (text, agent ids)."""
    lines = [
        "@prefix kgmas: <http://kgmas.example/vocab#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
    ]
    names = [f"Asset{i}" for i in range(k)]
    for name in names:
        lines.extend(random_asset_block(rng, name))
    for name in names:
        lines.append(f"kgmas:Plant kgmas:aggregates kgmas:{name} .")
    return "\n".join(lines) + "\n", sorted(n.lower() for n in names)


def grow_setup(rng: random.Random, text: str, index: int) -> tuple[str, str]:
    """Append one more asset to an existing setup; returns (text, agent id)."""
    name = f"Extra{index}"
    lines = random_asset_block(rng, name)
    lines.append(f"kgmas:Plant kgmas:aggregates kgmas:{name} .")
    return text + "\n".join(lines) + "\n", name.lower()


_LITERAL_POOL = [
    "plain", "with space", 'quote " inside', "back\\slash", "tab\there",
    "new\nline", "carriage\rreturn", "unicode é世界",
    "emoji \U0001f916", "", "trailing dot .", "# not a comment",
]


def random_term(rng: random.Random, literals_ok: bool):
    if literals_ok and rng.random() < 0.4:
        lexical = rng.choice(_LITERAL_POOL)
        if rng.random() < 0.3:
            return Literal(lexical, Iri(f"{NS}dt{rng.randrange(3)}"))
        return Literal(lexical)
    pool = [f"{NS}n{rng.randrange(30)}",
            f"http://other.example/path/{rng.randrange(10)}",
            f"http://third.example#x{rng.randrange(5)}"]
    return Iri(rng.choice(pool))


def random_triples(rng: random.Random, count: int) -> set[Triple]:
    out = set()
    while len(out) < count:
        out.add(Triple(random_term(rng, False), random_term(rng, False),
                       random_term(rng, True)))
    return out


def random_pattern(rng: random.Random, triples, var_names=("a", "b", "c")) -> Pattern:
    """A pattern biased toward matching something in the graph."""
    base = rng.choice(sorted(triples, key=lambda t: (t.subject.value,
                                                     t.predicate.value)))
    subject = base.subject if rng.random() < 0.5 else Variable(rng.choice(var_names))
    predicate = base.predicate if rng.random() < 0.5 else Variable(rng.choice(var_names))
    obj = base.object if rng.random() < 0.5 else Variable(rng.choice(var_names))
    if rng.random() < 0.2:
        subject = random_term(rng, False)
    return Pattern(subject, predicate, obj)


# -- the writer's per-occurrence reference and its inputs ------------------------


_LOCAL_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


def reference_render(term) -> str:
    """One term, rendered from scratch at every occurrence."""
    if isinstance(term, Literal):
        out = []
        for c in term.lexical:
            if c in '"\\':
                out.append("\\" + c)
            elif c in "\n\t\r":
                out.append({"\n": "\\n", "\t": "\\t", "\r": "\\r"}[c])
            elif ord(c) < 0x20:
                out.append(f"\\u{ord(c):04x}")
            else:
                out.append(c)
        datatype = "" if term.datatype is None else "^^" + reference_render(term.datatype)
        return '"' + "".join(out) + '"' + datatype
    for prefix, ns in (("kgmas", NS), ("xsd", XSD)):
        local = term.value[len(ns):]
        if (term.value.startswith(ns) and local and set(local) <= _LOCAL_CHARS
                and not local.endswith(".")):
            return f"{prefix}:{local}"
    return f"<{term.value}>"


def reference_serialize(triples) -> str:
    head = f"@prefix kgmas: <{NS}> .\n@prefix xsd: <{XSD}> .\n\n"
    return head + "".join(
        f"{reference_render(t.subject)} {reference_render(t.predicate)} "
        f"{reference_render(t.object)} .\n"
        for t in sorted(set(triples), key=triple_key))


# texts that are iris and, in the object position, also literals
_RENDER_TEXTS = [NS + local for local in ("a", "a.", "a/b", "", "a.b-c_9", ".a", "-", "é")] + [
    XSD + "integer", XSD + "", "urn:x", "a", "http://other.example/p#q"]
_RENDER_LEXICALS = ["", "plain", 'q"uote', "back\\slash", "t\tn\nr\r", "\x00\x1f\b\f",
                    "é世\U0001f916", " . ", "# not a comment"]


def random_render_graph(rng: random.Random, count: int) -> list[Triple]:
    """``count`` triples over small pools, so every term repeats, in any order
    and with repeats; objects include literals with the text of an iri."""
    iris = [Iri(text) for text in _RENDER_TEXTS]

    def obj():
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(iris)
        lexical = rng.choice(_RENDER_LEXICALS + _RENDER_TEXTS)
        return Literal(lexical, rng.choice(iris) if roll < 0.6 else None)

    triples = [Triple(rng.choice(iris), rng.choice(iris), obj()) for _ in range(count)]
    return triples + rng.sample(triples, count // 10)
