"""Term values: checked constructors, value equality, immutability and order."""

from __future__ import annotations

import pytest

from kgmas.acl import AclMessage, Performative
from kgmas.errors import ValidationError
from kgmas.terms import Iri, Literal, Pattern, Triple, Variable, term_key, triple_key
from kgmas.vocab import XSD_INTEGER

NS = "http://kgmas.example/vocab#"
S, P, O = Iri(NS + "s"), Iri(NS + "p"), Iri(NS + "o")


def _fresh(text: str) -> str:
    """An equal string that is not the same object."""
    return "".join(list(text))


def _refusal(build) -> str:
    with pytest.raises(ValidationError) as exc:
        build()
    return str(exc.value)


@pytest.mark.parametrize("value, message", [
    ("", "iri must be non-empty"),
    (NS + "a b", f"iri contains whitespace: {NS + 'a b'!r}"),
    (NS + "a\tb", f"iri contains whitespace: {NS + 'a' + chr(9) + 'b'!r}"),
    (NS + "a\u00a0b", f"iri contains whitespace: {NS + 'a' + chr(0xa0) + 'b'!r}"),
    (NS + "<a>", f"iri contains forbidden character: {NS + '<a>'!r}"),
    (NS + 'a"b', f"iri contains forbidden character: {NS + 'a' + chr(34) + 'b'!r}"),
])
def test_iri_refusals_are_pinned(value, message):
    assert _refusal(lambda: Iri(value)) == message


@pytest.mark.parametrize("lexical", [1, None, b"1", Iri(NS + "x")])
def test_literal_refuses_a_non_string_lexical_form(lexical):
    assert _refusal(lambda: Literal(lexical)) == "literal lexical form must be a string"


@pytest.mark.parametrize("datatype", [XSD_INTEGER.value, Literal("x"), 1])
def test_literal_refuses_a_datatype_that_is_not_an_iri(datatype):
    """A text datatype would only fail later, in the store's term order."""
    assert _refusal(lambda: Literal("1", datatype)) == "literal datatype must be an iri"


@pytest.mark.parametrize("args, message", [
    ((NS + "s", P, O), "triple subject must be an iri"),
    ((Literal("s"), P, O), "triple subject must be an iri"),
    ((S, NS + "p", O), "triple predicate must be an iri"),
    ((S, Literal("p"), O), "triple predicate must be an iri"),
    ((S, P, NS + "o"), "triple object must be an iri or literal"),
    ((S, P, None), "triple object must be an iri or literal"),
    ((S, P, Triple(S, P, O)), "triple object must be an iri or literal"),
])
def test_triple_refuses_a_non_term_position(args, message):
    assert _refusal(lambda: Triple(*args)) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Variable(""), "bad variable name: ''"),
    (lambda: Variable("a-b"), "bad variable name: 'a-b'"),
    (lambda: Pattern(Literal("s"), P, O), "pattern subject must be an iri or variable"),
    (lambda: Pattern(Variable("s"), NS + "p", O),
     "pattern predicate must be an iri or variable"),
    (lambda: Pattern(S, P, None), "pattern object must be a term or variable"),
], ids=["variable_empty", "variable_dash", "pattern_subject", "pattern_predicate",
        "pattern_object"])
def test_variable_and_pattern_refusals_are_pinned(build, message):
    assert _refusal(build) == message


def test_fields_read_back_by_name_and_keyword_construction_matches():
    lit = Literal(lexical="7", datatype=XSD_INTEGER)
    triple = Triple(subject=S, predicate=P, object=lit)
    assert (S.value, lit.lexical, lit.datatype) == (NS + "s", "7", XSD_INTEGER)
    assert (triple.subject, triple.predicate, triple.object) == (S, P, lit)
    assert triple == Triple(S, P, Literal("7", XSD_INTEGER))
    assert Literal("7").datatype is None


@pytest.mark.parametrize("build", [
    lambda t: Iri(t(NS + "a")),
    lambda t: Literal(t("1")),
    lambda t: Literal(t("1"), Iri(t(NS + "dt"))),
    lambda t: Triple(Iri(t(NS + "s")), Iri(t(NS + "p")), Iri(t(NS + "o"))),
    lambda t: Triple(Iri(t(NS + "s")), Iri(t(NS + "p")), Literal(t("v"), Iri(t(NS + "dt")))),
])
def test_equal_terms_built_apart_are_equal_and_hash_equal(build):
    one, two = build(_fresh), build(_fresh)
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


def test_an_iri_never_equals_a_literal_with_the_same_text():
    text = NS + "a"
    for lit in (Literal(text), Literal(text, Iri(text))):
        assert Iri(text) != lit and lit != Iri(text)
        assert len({Iri(text), lit}) == 2
    assert Literal("1") != Literal("1", XSD_INTEGER)
    assert Literal("1", XSD_INTEGER) != Literal("1", Iri(NS + "integer"))
    assert len({Literal("1"), Literal("1", XSD_INTEGER)}) == 2
    assert Triple(S, P, O) != Triple(S, P, Literal(O.value))


@pytest.mark.parametrize("term, fields", [
    (Iri(NS + "a"), ("value",)),
    (Literal("1", XSD_INTEGER), ("lexical", "datatype")),
    (Triple(S, P, O), ("subject", "predicate", "object")),
])
def test_assigning_a_field_raises(term, fields):
    before = repr(term)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(term, name, Literal("changed"))
    assert repr(term) == before


def test_repr_names_class_and_fields():
    assert repr(Iri(NS + "a")) == f"Iri(value='{NS}a')"
    assert repr(Literal("x")) == "Literal(lexical='x', datatype=None)"
    assert repr(Literal("1", XSD_INTEGER)) == (
        "Literal(lexical='1', datatype="
        "Iri(value='http://www.w3.org/2001/XMLSchema#integer'))")
    assert repr(Triple(S, P, Literal("v"))) == (
        f"Triple(subject=Iri(value='{NS}s'), predicate=Iri(value='{NS}p'), "
        "object=Literal(lexical='v', datatype=None))")


def test_term_key_puts_iris_first_then_text_then_datatype():
    terms = [Literal("b"), Literal("a", XSD_INTEGER), Iri(NS + "b"), Literal("a"),
             Iri(NS + "a"), Literal("a", Iri(NS + "dt"))]
    assert sorted(terms, key=term_key) == [
        Iri(NS + "a"), Iri(NS + "b"), Literal("a"), Literal("a", Iri(NS + "dt")),
        Literal("a", XSD_INTEGER), Literal("b")]
    assert term_key(Iri(NS + "a")) == (0, NS + "a", "")
    assert term_key(Literal("1", XSD_INTEGER)) == (1, "1", XSD_INTEGER.value)


def test_triple_key_orders_by_subject_predicate_then_object_term():
    triples = [Triple(S, P, Literal("a")), Triple(S, P, O), Triple(O, P, S),
               Triple(S, O, Literal("z"))]
    assert sorted(triples, key=triple_key) == [
        Triple(O, P, S), Triple(S, O, Literal("z")), Triple(S, P, O),
        Triple(S, P, Literal("a"))]


@pytest.mark.parametrize("content, kind", [
    (Iri(NS + "a"), "Iri"),
    (Literal("1"), "Literal"),
    ({"at": Iri(NS + "a")}, "Iri"),
    ({"facts": [Triple(S, P, Literal("v"))]}, "Triple"),
    ([{"value": Literal("1", XSD_INTEGER)}], "Literal"),
])
def test_a_message_whose_content_holds_a_term_is_refused(content, kind):
    # a term must never reach the JSON encoder, which would write a tuple as a list
    message = _refusal(lambda: AclMessage(Performative.INFORM, "kg", "turtlebot",
                                          content, "conv-1"))
    assert message == f"content: {kind} is not a JSON value"
