"""Parser and serializer: round trips, error positions, rejected syntax."""

from __future__ import annotations

import random

import pytest

from helpers import fixture_text, random_triples
from kgmas.errors import TurtleParseError
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
]


@pytest.mark.parametrize("text,message,line,column", REJECTIONS)
def test_rejection_message_and_position(text, message, line, column):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("bad", ["a b", "a\tb", "a\u00a0b", 'a"b', "a<b"])
def test_bad_iri_character_is_a_parse_error(bad):
    text = f"<http://e/s> <http://e/p>\n  <http://e/{bad}> ."
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(text)
    assert (err.value.line, err.value.column) == (2, 3)
    assert repr(f"http://e/{bad}") in str(err.value)


def test_single_character_edits_parse_or_raise_parse_errors():
    text = fixture_text("fig3_setup.ttl")
    refs = [at for at, c in enumerate(text) if c == "<"]
    rng = random.Random(31)
    inserted = ' \t\n\r"<>:._#@^\\;,?xU0\u00a0'
    for _ in range(1000):
        # every other edit lands in or just after an iri ref: the fixture
        # has only two, and a bad character there is a parse error too
        at = (rng.randrange(len(text) + 1) if rng.random() < 0.5
              else rng.choice(refs) + rng.randrange(40))
        if rng.random() < 0.5:
            edited = text[:at] + rng.choice(inserted) + text[at:]
        else:
            edited = text[:at] + text[at + 1:]
        try:
            parse_turtle(edited)
        except TurtleParseError:
            pass


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
