"""RDF-style term model used by the named-graph store.

Terms are immutable value objects. A triple holds ground terms only;
patterns may put variables in any position. Object positions accept
literals, subject and predicate positions do not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import ValidationError

_HAS_SPACE = re.compile(r"\s").search  # `\s` is exactly str.isspace()
_HAS_FORBIDDEN = re.compile(r'[<>"]').search


@dataclass(frozen=True)
class Iri:
    """An absolute identifier, stored as its full text."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise ValidationError("iri must be non-empty")
        if _HAS_SPACE(self.value):
            raise ValidationError(f"iri contains whitespace: {self.value!r}")
        if _HAS_FORBIDDEN(self.value):
            raise ValidationError(f"iri contains forbidden character: {self.value!r}")

    @property
    def local_name(self) -> str:
        """Text after the last '#' or '/', used to derive agent ids."""
        for sep in ("#", "/"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value


@dataclass(frozen=True)
class Literal:
    """A datatyped string value. No language tags."""

    lexical: str
    datatype: Iri | None = None

    def __post_init__(self):
        if not isinstance(self.lexical, str):
            raise ValidationError("literal lexical form must be a string")


@dataclass(frozen=True)
class Variable:
    """A named query variable."""

    name: str

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise ValidationError(f"bad variable name: {self.name!r}")


Term = Union[Iri, Literal]
PatternTerm = Union[Iri, Literal, Variable]


@dataclass(frozen=True)
class Triple:
    """A ground statement: subject and predicate are iris, object is a term."""

    subject: Iri
    predicate: Iri
    object: Term

    def __post_init__(self):
        if not isinstance(self.subject, Iri):
            raise ValidationError("triple subject must be an iri")
        if not isinstance(self.predicate, Iri):
            raise ValidationError("triple predicate must be an iri")
        if not isinstance(self.object, (Iri, Literal)):
            raise ValidationError("triple object must be an iri or literal")


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
