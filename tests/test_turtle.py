"""Parser and serializer: round trips, error positions, rejected syntax."""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from helpers import (fixture_text, random_render_graph, random_triples,
                     reference_serialize)
from kgmas import turtle
from kgmas.errors import TurtleParseError
from kgmas.store import NamedGraphStore
from kgmas.terms import Iri, Literal, Triple
from kgmas.turtle import parse_turtle, serialize_turtle

NS = "http://kgmas.example/vocab#"
XSD = "http://www.w3.org/2001/XMLSchema#"


def test_parse_plain_statements():
    text = f"""
    @prefix kgmas: <{NS}> .
    kgmas:a kgmas:p kgmas:b .
    <{NS}c> <{NS}q> "hello" .
    """
    triples = set(parse_turtle(text))
    assert Triple(Iri(NS + "a"), Iri(NS + "p"), Iri(NS + "b")) in triples
    assert Triple(Iri(NS + "c"), Iri(NS + "q"), Literal("hello")) in triples


def test_parse_statement_spanning_lines_and_comments():
    text = f"""@prefix kgmas: <{NS}> .
    # leading comment
    kgmas:a
        kgmas:p    # trailing comment
        "multi line subject layout" .
    """
    triples = parse_turtle(text)
    assert triples == [Triple(Iri(NS + "a"), Iri(NS + "p"),
                              Literal("multi line subject layout"))]


def test_parse_typed_literal():
    text = f'@prefix xsd: <{XSD}> .\n<{NS}s> <{NS}p> "7"^^xsd:integer .'
    [triple] = parse_turtle(text)
    assert triple.object == Literal("7", Iri(XSD + "integer"))


def test_an_iri_named_three_times_is_one_object():
    text = (f"@prefix kgmas: <{NS}> .\n"
            f"kgmas:a kgmas:p <{NS}a> .\n"
            f'<{NS}s> <{NS}p> "1"^^kgmas:a .\n')
    first, second = parse_turtle(text)
    assert first.subject == Iri(NS + "a")
    assert first.object is first.subject
    assert second.object.datatype is first.subject
    assert second.predicate is first.predicate


def test_a_literal_written_three_times_is_one_object():
    written = ['"plain"', '"tab\\there"', f'"1"^^<{XSD}int>', '"1"^^kgmas:t']
    text = f"@prefix kgmas: <{NS}> .\n" + "".join(
        f"<{NS}s{i}> <{NS}p> {literal} .\n" for i in range(3) for literal in written)
    objects = [t.object for t in parse_turtle(text)]
    assert objects[:4] == [Literal("plain"), Literal("tab\there"),
                           Literal("1", Iri(XSD + "int")), Literal("1", kg("t"))]
    for i, literal in enumerate(objects[:4]):
        assert objects[i + 4] is literal and objects[i + 8] is literal


def test_parse_escapes():
    text = (f'<{NS}s> <{NS}p> '
            '"q:\\" b:\\\\ n:\\n t:\\t u:\\u00e9 U:\\U0001f916" .')
    [triple] = parse_turtle(text)
    assert triple.object.lexical == 'q:" b:\\ n:\n t:\t u:\u00e9 U:\U0001f916'


def kg(local):
    return Iri(NS + local)


@pytest.mark.parametrize("text,expected", [
    # CRLF line ends, tabs and comments between every token, '#' in a literal
    (f"@prefix#c\r\n\tkgmas:#c\r\n<{NS}>#c\r\n.#c\r\n"
     "kgmas:a\t#c\r\nkgmas:p#c\r\n\t\"x # not a comment\"#c\r\n.\r\n",
     [Triple(kg("a"), kg("p"), Literal("x # not a comment"))]),
    # both datatype forms, \\u and \\U escapes, locals with inner dots
    (f"@prefix kgmas: <{NS}> .\n@prefix xsd: <{XSD}> .\n"
     'kgmas:a.b kgmas:p.q "\\u00e9\\U0001F916"^^xsd:string .\n'
     f'kgmas:a.b kgmas:p.q "1"^^<{XSD}int> .\n',
     [Triple(kg("a.b"), kg("p.q"), Literal("\u00e9\U0001f916", Iri(XSD + "string"))),
      Triple(kg("a.b"), kg("p.q"), Literal("1", Iri(XSD + "int")))]),
    # the last dot of "a.." closes the statement
    (f"@prefix kgmas: <{NS}> .\nkgmas:s kgmas:p kgmas:a.. \n",
     [Triple(kg("s"), kg("p"), kg("a."))]),
    # no space before the iri of a prefix, nor anywhere it is not needed
    (f"@prefix kgmas:<{NS}>.\nkgmas:s<{NS}p>kgmas:o.<{NS}s>kgmas:p\"v\"."
     f"kgmas:t<{NS}p>kgmas:o.",
     [Triple(kg("s"), kg("p"), kg("o")), Triple(kg("s"), kg("p"), Literal("v")),
      Triple(kg("t"), kg("p"), kg("o"))]),
    # a later @prefix rebinds the name for the statements after it: the same
    # written name and the same "1"^^kgmas:t read as other terms from there on
    (f"@prefix kgmas: <{NS}> .\n"
     'kgmas:s kgmas:p "1"^^kgmas:t .\nkgmas:s kgmas:p kgmas:o .\n'
     "@prefix kgmas: <urn:other:> .\n"
     'kgmas:s kgmas:p "1"^^kgmas:t .\nkgmas:s kgmas:p kgmas:o .\n',
     [Triple(kg("s"), kg("p"), Literal("1", kg("t"))), Triple(kg("s"), kg("p"), kg("o")),
      Triple(Iri("urn:other:s"), Iri("urn:other:p"), Literal("1", Iri("urn:other:t"))),
      Triple(Iri("urn:other:s"), Iri("urn:other:p"), Iri("urn:other:o"))]),
])
def test_parse_layouts_the_serializer_never_emits(text, expected):
    assert parse_turtle(text) == expected


def test_error_position_line_and_column():
    text = f"@prefix kgmas: <{NS}> .\nkgmas:a kgmas:p ; .\n"
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(text)
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    assert f"column {err.value.column}" in str(err.value)


def test_error_on_unknown_prefix():
    with pytest.raises(TurtleParseError) as err:
        parse_turtle("missing:a missing:b missing:c .")
    assert err.value.line == 1


@pytest.mark.parametrize("bad", [
    "_:blank <http://e/p> <http://e/o> .",
    '<http://e/s> <http://e/p> "x"@en .',
    '<http://e/s> <http://e/p> <http://e/o> ; <http://e/q> <http://e/r> .',
    '<http://e/s> <http://e/p> <http://e/o>, <http://e/o2> .',
    "@base <http://e/> .",
    "<http://e/s> <http://e/p> <http://e/o>",  # missing final dot
])
def test_rejected_syntax(bad):
    with pytest.raises(TurtleParseError):
        parse_turtle(bad)


P = f"@prefix kgmas: <{NS}> .\n"
TWO_GOOD = P + "kgmas:a kgmas:p kgmas:b .\n" + '<http://e/s> <http://e/p> "ok" .\n'


# (document, message, line, column) for every kind of rejection; a bad
# '@' directive, a newline inside an iri and a bad or dangling escape are
# reported at the offending character ('@', the newline, the backslash)
REJECTIONS = [
    ("_:blank <http://e/p> <http://e/o> .",
     "blank nodes are not supported", 1, 1),
    ('<http://e/s> <http://e/p> "x"@en .',
     "language tags are not supported", 1, 30),
    ("<http://e/s> <http://e/p> <http://e/o> ; <http://e/q> <http://e/r> .",
     "predicate/object lists are not supported", 1, 40),
    ("<http://e/s> <http://e/p> <http://e/o>, <http://e/o2> .",
     "predicate/object lists are not supported", 1, 39),
    ("@base <http://e/> .", "malformed @prefix directive", 1, 1),
    ("<http://e/s> <http://e/p> <http://e/o>",
     "statement missing final '.'", 1, 39),
    (P + "q:a kgmas:p kgmas:b .", "undeclared prefix 'q'", 2, 1),
    (P + 'kgmas:a kgmas:p "1"^^q:int .', "undeclared prefix 'q'", 2, 22),
    ("<> <http://e/p> <http://e/o> .", "empty iri", 1, 3),
    ("<http://e/s> <http://e/p> <http://e/o", "unterminated iri", 1, 38),
    ("<http://e/s> <http://e/p> <http://e/\no> .", "newline inside iri", 1, 37),
    ('<http://e/s> <http://e/p> "abc .', "unterminated literal", 1, 33),
    ('<http://e/s> <http://e/p> "a\\qb" .', "unknown escape \\q", 1, 29),
    ('<http://e/s> <http://e/p> "a\\u12" .', "bad \\u escape", 1, 29),
    ('"x" <http://e/p> <http://e/o> .',
     "literal not allowed in subject position", 1, 1),
    ('<http://e/s> "x" <http://e/o> .',
     "literal not allowed in predicate position", 1, 14),
    ("<http://e/s> @prefix <http://e/o> .",
     "expected iri in predicate position, found '@'", 1, 14),
    ("<http://e/s> <http://e/p> ?x .",
     "expected term in object position, found '?'", 1, 27),
    (P + ":a kgmas:p kgmas:b .",
     "expected iri in subject position, found ':'", 2, 1),
    ("<http://e/s> <http://e/p> <http://e/o> . junk",
     "expected ':' after prefix 'junk'", 1, 46),
    ("@prefix k <http://e/> .", "expected ':', found ' '", 1, 10),
    ("@prefix k: http://e/ .", "expected '<', found 'h'", 1, 12),
    ("@prefix k: <http://e/>", "expected '.', found end of input", 1, 23),
    ('<http://e/s> <http://e/p> "x"^y .', "expected '^', found 'y'", 1, 31),
    ('<http://e/s> <http://e/p> "x"^^ <http://e/t> .',
     "expected ':' after prefix ''", 1, 32),
    ('<http://e/s> <http://e/p> "x"^^<http://e/t', "unterminated iri", 1, 43),
    ('<http://e/s> <http://e/p> "abc\\', "dangling escape", 1, 31),
    # beyond the last code point
    ('<http://e/s> <http://e/p> "\\U00110000" .', "bad \\U escape", 1, 28),
] + [(TWO_GOOD + third + "\n", message, 4, column) for third, message, column in [
    # found in the third statement, after two were matched and built
    ("q:a kgmas:p kgmas:b .", "undeclared prefix 'q'", 1),
    ("kgmas:a q:p kgmas:b .", "undeclared prefix 'q'", 9),
    ("kgmas:a kgmas:p q:b .", "undeclared prefix 'q'", 17),
    ('kgmas:a kgmas:p "1"^^q:int .', "undeclared prefix 'q'", 22),
    ("<http://e/a b> kgmas:p kgmas:b .", "iri contains whitespace: 'http://e/a b'", 1),
    ('kgmas:a <http://e/a"b> kgmas:b .',
     "iri contains forbidden character: 'http://e/a\"b'", 9),
    ("kgmas:a kgmas:p <http://e/a<b> .",
     "iri contains forbidden character: 'http://e/a<b'", 17),
    ('kgmas:a kgmas:p "x"^^<http://e/a b> .',
     "iri contains whitespace: 'http://e/a b'", 22),
    ("@prefix k: <http://e/a b> .", "iri contains whitespace: 'http://e/a b'", 12),
    ("<> kgmas:p kgmas:b .", "empty iri", 3),
    ("kgmas:a <> kgmas:b .", "empty iri", 11),
    ('kgmas:a kgmas:p "x"^^<> .', "empty iri", 24),
    ("@prefix k: <> .", "empty iri", 14),
    ('kgmas:a kgmas:p "a\\qb" .', "unknown escape \\q", 19),
    ('kgmas:a kgmas:p "\\U00110000" .', "bad \\U escape", 18),
    ('kgmas:a kgmas:p "x"@en .', "language tags are not supported", 20),
    ("kgmas:a kgmas:p kgmas:b ; kgmas:q kgmas:c .",
     "predicate/object lists are not supported", 25),
]]


@pytest.mark.parametrize("text,message,line,column", REJECTIONS)
def test_rejection_message_and_position(text, message, line, column):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("text,message,column", [
    ('kgmas:a kgmas:p "a\\qb"^^q:int .', "unknown escape \\q", 19),
    ('kgmas:a kgmas:p "a\\qb"^^<http://e/a b> .', "unknown escape \\q", 19),
    ("q:a kgmas:p <http://e/a b> .", "undeclared prefix 'q'", 1),
    ("<http://e/a b> q:p kgmas:o ;", "iri contains whitespace: 'http://e/a b'", 1),
    ("@prefix k: <http://e/a b> x", "iri contains whitespace: 'http://e/a b'", 12),
])
def test_a_statement_with_several_faults_reports_the_first(text, message, column):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(P + text)
    assert str(err.value) == f"line 2, column {column}: {message}"


@pytest.mark.parametrize("statement", [
    "<http://e/s> <http://e/p> <http://e/o> .", "@prefix e: <http://e/> ."])
def test_token_walk_that_finds_no_error_fails_loudly(statement):
    """The token walk runs only on a statement the statement pattern refused;
    finding nothing wrong there means the two grammars differ."""
    with pytest.raises(RuntimeError):
        turtle._statement_error(statement, 0, {})


@pytest.mark.parametrize("bad", ["a b", "a\tb", "a\u00a0b", 'a"b', "a<b"])
def test_bad_iri_character_is_a_parse_error(bad):
    text = f"<http://e/s> <http://e/p>\n  <http://e/{bad}> ."
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(text)
    assert (err.value.line, err.value.column) == (2, 3)
    assert repr(f"http://e/{bad}") in str(err.value)


def single_character_edits(text: str, seed: int, anchors: str, count: int = 1000):
    """``count`` seeded one-character insertions and deletions of ``text``.

    Every other edit lands in or just after one of the characters in
    ``anchors``, so the rarer constructs get their share of damage.
    """
    spots = [at for at, c in enumerate(text) if c in anchors]
    rng = random.Random(seed)
    inserted = ' \t\n\r"<>:._#@^\\;,?xU0\u00a0'
    for _ in range(count):
        at = (rng.randrange(len(text) + 1) if rng.random() < 0.5
              else rng.choice(spots) + rng.randrange(40))
        if rng.random() < 0.5:
            yield text[:at] + rng.choice(inserted) + text[at:]
        else:
            yield text[:at] + text[at + 1:]


def test_single_character_edits_parse_or_raise_parse_errors():
    # the fixture has only two iri refs, and a bad character there is a
    # parse error too
    for edited in single_character_edits(fixture_text("fig3_setup.ttl"), 31, "<"):
        try:
            parse_turtle(edited)
        except TurtleParseError:
            pass


def inventory_like_document(seed: int, count: int) -> str:
    """Statements in the shapes of a data-graph dump and then some: full and
    prefixed iris, both datatype forms, every escape, CRLF line ends and
    comments."""
    rng = random.Random(seed)
    lexicals = ["plain", 'q:\\" b:\\\\', "n:\\n t:\\t r:\\r", "u:\\u00e9",
                "U:\\U0001F916", "# not a comment", "dot .", "", "b:\\b f:\\f"]
    objects = ["kgmas:o{n}", f"<{NS}o{{n}}>", '"{lex}"', '"{lex}"^^xsd:integer',
               f'"{{lex}}"^^<{XSD}string>', "kgmas:o.{n}"]
    lines = [f"@prefix kgmas: <{NS}> .", f"@prefix xsd: <{XSD}> ."]
    for n in range(count):
        subject = rng.choice(["kgmas:item{n}", f"<{NS}item{{n}}>", "kgmas:a.b{n}"])
        obj = rng.choice(objects).format(n=n, lex=rng.choice(lexicals))
        line = f"{subject.format(n=n)} kgmas:p{rng.randrange(4)} {obj} ."
        if rng.random() < 0.2:
            line += "  # trailing comment"
        lines.append(line)
        if rng.random() < 0.1:
            lines.append("# a comment line")
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def outcome(text: str) -> str:
    """The triples a document parses to, or its error's message and position."""
    try:
        return repr(parse_turtle(text))
    except TurtleParseError as err:
        return str(err)


# sha256 over every outcome of the documents below, taken with the token
# reader that parsed one term per match; any change of a triple, an error
# message, a line or a column changes it
OUTCOMES_SHA256 = "30ee4e59823fc27bde2460a82f3823aa67abba8f1b4b7fcd12703e8036bae582"


def test_outcomes_of_seeded_edits_are_pinned():
    fixture = fixture_text("fig3_setup.ttl")
    inventory = inventory_like_document(41, 60)
    documents = [fixture, inventory,
                 *single_character_edits(fixture, 31, "<"),
                 *single_character_edits(inventory, 43, '<"\\')]
    digest = hashlib.sha256()
    for text in documents:
        digest.update(outcome(text).encode("utf-8") + b"\0")
    assert digest.hexdigest() == OUTCOMES_SHA256


# sha256 over every outcome of edits aimed at directives, datatypes and
# names, taken with the reader whose error walk still built terms
DIRECTIVE_OUTCOMES_SHA256 = "dd942db59e353cee201851f491f15c451a712abcf97b717125e06badaee161de"


def test_outcomes_of_edits_near_directives_and_names_are_pinned():
    documents = [*single_character_edits(inventory_like_document(47, 60), 53, "@^:"),
                 *single_character_edits(fixture_text("fig3_setup.ttl"), 59, "@:", 500)]
    digest = hashlib.sha256()
    for text in documents:
        digest.update(outcome(text).encode("utf-8") + b"\0")
    assert digest.hexdigest() == DIRECTIVE_OUTCOMES_SHA256


def test_serializer_emits_prefixes_and_sorted_triples():
    triples = [
        Triple(Iri(NS + "b"), Iri(NS + "p"), Literal("2")),
        Triple(Iri(NS + "a"), Iri(NS + "p"), Literal("1")),
    ]
    text = serialize_turtle(triples)
    lines = text.splitlines()
    assert lines[0] == f"@prefix kgmas: <{NS}> ."
    assert lines[1] == f"@prefix xsd: <{XSD}> ."
    assert lines.index('kgmas:a kgmas:p "1" .') < lines.index('kgmas:b kgmas:p "2" .')
    assert text.endswith("\n")


@pytest.mark.parametrize("local,rendered", [
    ("a", "kgmas:a"), ("a.b-c_9", "kgmas:a.b-c_9"), ("a.", f"<{NS}a.>"),
    ("", f"<{NS}>"), ("a/b", f"<{NS}a/b>"), ("\u00e9", f"<{NS}\u00e9>"),
])
def test_serializer_writes_a_prefixed_name_only_where_it_reads_back(local, rendered):
    triple = Triple(Iri(NS + local), Iri(NS + "p"), Literal("v"))
    text = serialize_turtle([triple])
    assert text.splitlines()[-1] == f'{rendered} kgmas:p "v" .'
    assert parse_turtle(text) == [triple]


def test_serializer_output_is_stable_under_input_order():
    rng = random.Random(21)
    triples = list(random_triples(rng, 30))
    shuffled = list(triples)
    rng.shuffle(shuffled)
    assert serialize_turtle(triples) == serialize_turtle(shuffled)


def test_round_trip_many_random_documents():
    rng = random.Random(22)
    for _ in range(40):
        triples = random_triples(rng, rng.randint(1, 60))
        text = serialize_turtle(triples)
        assert set(parse_turtle(text)) == triples


def test_round_trip_is_fixed_point():
    rng = random.Random(23)
    triples = random_triples(rng, 25)
    once = serialize_turtle(triples)
    twice = serialize_turtle(parse_turtle(once))
    assert once == twice


# -- the writer against a per-occurrence reference ---------------------------


@pytest.mark.parametrize("seed", range(6))
def test_serializer_agrees_with_a_per_occurrence_reference(seed):
    rng = random.Random(seed)
    for count in (0, 1, rng.randint(2, 200), rng.randint(200, 5000)):
        triples = random_render_graph(rng, count)
        assert serialize_turtle(triples) == reference_serialize(triples)


def test_serializer_escapes_each_character_alone():
    """A literal that holds one character the writer escapes, and nothing else,
    is escaped as the reference escapes it; its neighbours are not."""
    characters = [chr(c) for c in range(0x21)] + ['"', "\\", "\x7f", "a"]
    triples = [Triple(Iri(NS + "s"), Iri(NS + "p"), Literal(c)) for c in characters]
    assert serialize_turtle(triples) == reference_serialize(triples)


def test_serializer_renders_each_distinct_term_once(monkeypatch):
    triples = random_render_graph(random.Random(7), 400)
    terms = {term for t in triples for term in t}
    terms |= {t.object.datatype for t in triples
              if isinstance(t.object, Literal) and t.object.datatype is not None}
    rendered = []
    render = turtle._Rendered.__missing__

    @functools.wraps(render)
    def counted(memo, term):
        rendered.append(term)
        return render(memo, term)

    monkeypatch.setattr(turtle._Rendered, "__missing__", counted)
    assert serialize_turtle(triples) == reference_serialize(triples)
    assert len(rendered) == len(terms) and set(rendered) == terms
    rendered.clear()
    serialize_turtle(triples)  # the memo lives for one call
    assert len(rendered) == len(terms)


# (written form, value) pieces of generated documents
_PREFIXES = [("kgmas", NS), ("xsd", XSD), ("p-1", "http://other.example/path/"),
             ("a.b", "urn:x:")]
_LOCALS = ["a", "A-1", "x_y", "v1.2", "a.b.c", "dots..x", "0", "-", "_", ""]
_IRI_REFS = [NS + "r", "http://other.example/p%20q?x=1&y=2", "urn:isbn:0-1",
             "http://third.example/é#frag", "http://third.example/a;b,c", "tag:x.y,2024:z"]
_LEXICAL_PIECES = [("plain", "plain"), ("\\t", "\t"), ("\\n", "\n"), ("\\r", "\r"),
                   ('\\"', '"'), ("\\\\", "\\"), ("\\b", "\b"), ("\\f", "\f"),
                   ("\\u00e9", "é"), ("\\U0001F916", "\U0001f916"), ("世", "世"),
                   ("'", "'"), ("# not a comment", "# not a comment"), (" . ", " . ")]
_GAPS = [" ", "  ", "\t", "\n", "\r\n", " # a comment\n", "\n# own line\n  "]


def _generated_iri(rng: random.Random) -> tuple[str, str]:
    if rng.random() < 0.3:
        ref = rng.choice(_IRI_REFS)
        return f"<{ref}>", ref
    prefix, ns = rng.choice(_PREFIXES)
    local = rng.choice(_LOCALS) + rng.choice(["", str(rng.randrange(9))])
    return f"{prefix}:{local}", ns + local


def _generated_object(rng: random.Random):
    """The written object and the term it must read as, built through the checks."""
    if rng.random() < 0.4:
        written, value = _generated_iri(rng)
        return written, Iri(value)
    pieces = [rng.choice(_LEXICAL_PIECES) for _ in range(rng.randrange(4))]
    written = '"' + "".join(w for w, _ in pieces) + '"'
    lexical = "".join(v for _, v in pieces)
    if rng.random() < 0.5:
        return written, Literal(lexical)
    datatype, value = _generated_iri(rng)
    return f"{written}^^{datatype}", Literal(lexical, Iri(value))


def generated_document(seed: int, count: int) -> tuple[str, list[Triple]]:
    """A seeded document in every form the reader takes, and its triples."""
    rng = random.Random(seed)
    parts = [f"@prefix {prefix}:{rng.choice(_GAPS)}<{ns}> .\n" for prefix, ns in _PREFIXES]
    expected = []
    for _ in range(count):
        (s, s_iri), (p, p_iri) = _generated_iri(rng), _generated_iri(rng)
        o, obj = _generated_object(rng)
        gaps = [rng.choice(_GAPS) for _ in range(4)]
        parts.append(f"{s}{gaps[0]}{p}{gaps[1]}{o}{gaps[2]}.{gaps[3]}")
        expected.append(Triple(Iri(s_iri), Iri(p_iri), obj))
    return "".join(parts), expected


def _rebuilt(term):
    """The same term built again through the checked constructors."""
    if type(term) is Iri:
        return Iri(term.value)
    assert type(term) is Literal
    datatype = term.datatype
    assert datatype is None or type(datatype) is Iri
    return Literal(term.lexical, datatype and Iri(datatype.value))


@pytest.mark.parametrize("seed", range(8))
def test_parsed_terms_equal_checked_terms_and_round_trip(seed):
    text, expected = generated_document(seed, 80)
    parsed = parse_turtle(text)
    assert parsed == expected
    for triple in parsed:
        assert type(triple) is Triple
        rebuilt = Triple(_rebuilt(triple.subject), _rebuilt(triple.predicate),
                         _rebuilt(triple.object))
        assert rebuilt == triple and hash(rebuilt) == hash(triple)
        for field in ("subject", "predicate", "object"):
            assert type(getattr(triple, field)) is type(getattr(rebuilt, field))
    store = NamedGraphStore()
    store.load_turtle(NS + "g", text)
    dumped = store.dump_turtle(NS + "g")
    assert set(parse_turtle(dumped)) == set(expected)
    assert serialize_turtle(parse_turtle(dumped)) == dumped
