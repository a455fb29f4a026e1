"""RDF-style term model used by the named-graph store.

Terms are immutable values. ``Iri``, ``Literal`` and ``Triple`` are tuples
underneath, so hashing, equality and field reads run in C, and their
constructors check every field. A triple holds ground terms only;
patterns may put variables in any position. Object positions accept
literals, subject and predicate positions do not.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Union

from .errors import ValidationError

_HAS_SPACE = re.compile(r"\s").search  # `\s` is exactly str.isspace()
_HAS_FORBIDDEN = re.compile(r'[<>"]').search


class Iri(namedtuple("Iri", "value")):
    """An absolute identifier, stored as its full text."""

    __slots__ = ()

    def __new__(cls, value: str):
        if not value:
            raise ValidationError("iri must be non-empty")
        if _HAS_SPACE(value):
            raise ValidationError(f"iri contains whitespace: {value!r}")
        if _HAS_FORBIDDEN(value):
            raise ValidationError(f"iri contains forbidden character: {value!r}")
        return tuple.__new__(cls, (value,))

    @property
    def local_name(self) -> str:
        """Text after the last '#' or '/', used to derive agent ids."""
        for sep in ("#", "/"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value


class Literal(namedtuple("Literal", "lexical datatype")):
    """A datatyped string value. No language tags."""

    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Iri | None = None):
        if not isinstance(lexical, str):
            raise ValidationError("literal lexical form must be a string")
        if datatype is not None and not isinstance(datatype, Iri):
            raise ValidationError("literal datatype must be an iri")
        return tuple.__new__(cls, (lexical, datatype))


@dataclass(frozen=True)
class Variable:
    """A named query variable."""

    name: str

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise ValidationError(f"bad variable name: {self.name!r}")


Term = Union[Iri, Literal]
PatternTerm = Union[Iri, Literal, Variable]


class Triple(namedtuple("Triple", "subject predicate object")):
    """A ground statement: subject and predicate are iris, object is a term."""

    __slots__ = ()

    def __new__(cls, subject: Iri, predicate: Iri, object: Term):
        if not isinstance(subject, Iri):
            raise ValidationError("triple subject must be an iri")
        if not isinstance(predicate, Iri):
            raise ValidationError("triple predicate must be an iri")
        if not isinstance(object, (Iri, Literal)):
            raise ValidationError("triple object must be an iri or literal")
        return tuple.__new__(cls, (subject, predicate, object))


@dataclass(frozen=True)
class Pattern:
    """A triple pattern; any position may hold a variable."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self):
        if not isinstance(self.subject, (Iri, Variable)):
            raise ValidationError("pattern subject must be an iri or variable")
        if not isinstance(self.predicate, (Iri, Variable)):
            raise ValidationError("pattern predicate must be an iri or variable")
        if not isinstance(self.object, (Iri, Literal, Variable)):
            raise ValidationError("pattern object must be a term or variable")


def term_key(term: Term) -> tuple:
    """Total order over ground terms: iris before literals, then text."""
    if isinstance(term, Iri):
        return (0, term.value, "")
    dt = term.datatype.value if term.datatype else ""
    return (1, term.lexical, dt)


def triple_key(triple: Triple) -> tuple:
    return (triple.subject.value, triple.predicate.value, term_key(triple.object))
