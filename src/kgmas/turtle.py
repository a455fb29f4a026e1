"""Reader and writer for the Turtle subset used by graph fixtures and dumps.

Supported syntax:

* ``@prefix pfx: <iri> .`` declarations
* one statement per ``subject predicate object .`` group (may span lines)
* iris in angle brackets or as prefixed names
* double-quoted literals with backslash escapes and an optional
  ``^^<datatype>`` / ``^^pfx:local`` suffix
* ``#`` comments outside quoted strings

Deliberately absent: blank nodes, language tags, predicate/object lists
and ``@base``. Anything outside the subset raises ``TurtleParseError``
with a 1-based line and column.

The reader is one compiled pattern, ``_STATEMENT``, whose match takes a
whole statement or ``@prefix`` directive, one group per written term. One
term memo, which lives for one call and is replaced at each ``@prefix``,
builds each distinct written term once, a name's ``Iri`` without the checks
its checked namespace and grammar guarantee. Only a statement that does not
match, or holds a bad term, is walked again one ``_TOKEN`` at a time; that
walk builds nothing and only checks, to say why and where.
"""

from __future__ import annotations

import re

from .errors import TurtleParseError, ValidationError
from .terms import Iri, Literal, Triple, triple_key
from .vocab import KGMAS_NS, XSD_NS

# A group repeat is entered only where its first character stands: ``re``
# tests the lookahead more cheaply than it sets up a repeat that fails.
_SPACE = r"[ \t\r\n]*(?:(?=#)(?:#[^\n]*(?:\n|\Z)[ \t\r\n]*)*|)"
_NAME = r"[A-Za-z0-9_.-]*"
# a local name does not end in '.': that dot closes the statement; nor is
# it ever cut short, so a statement cannot backtrack into a shorter one
_LOCAL = (r"[A-Za-z0-9_-]*(?:(?=\.[A-Za-z0-9_.-])(?:\.(?=[A-Za-z0-9_.-])[A-Za-z0-9_-]*)*|)"
          r"(?![A-Za-z0-9_-]|\.[A-Za-z0-9_.-])")
_IRI_BODY = r"[^>\r\n]*"
_LITERAL_BODY = r'[^"\\]*(?:(?=\\)(?:\\.[^"\\]*)*|)'
_PREFIX = rf"@prefix{_SPACE}(?P<name>{_NAME}):{_SPACE}<(?P<ns>{_IRI_BODY})>{_SPACE}\."

# A prefixed name and a literal, with the groups the token walk reads; a
# term's prefix is not empty and does not start with '_' (a blank node).
_PNAME = rf"(?P<pfx>[A-Za-z0-9.-]{_NAME}):{_LOCAL}"
_LITERAL = (rf'"(?P<lex>{_LITERAL_BODY})"(?:\^\^(?:<(?P<dt_ref>{_IRI_BODY})>'
            rf"|(?P<dt_pfx>{_NAME}):{_LOCAL})|(?![@^]))")
_TOKEN = re.compile(
    rf"{_SPACE}(?:(?P<iri><(?P<ref>{_IRI_BODY})>)|(?P<pname>{_PNAME})|(?P<literal>{_LITERAL})"
    rf"|(?P<prefix>{_PREFIX})|(?P<end>[.;,])|(?P<other>))", re.DOTALL)
_WHOLE_PNAME, _WHOLE_LITERAL = (re.sub(r"\(\?P<\w+>", "(?:", t) for t in (_PNAME, _LITERAL))
_IRI_OR_NAME = rf"<{_IRI_BODY}>|{_WHOLE_PNAME}"
# A directive, or subject, predicate and object, each as written, and '.';
# else nothing, so that a match always starts where the last one ended, and
# no search runs past a bad one.
_STATEMENT = re.compile(
    rf"{_SPACE}(?:{_PREFIX}|(?P<s>{_IRI_OR_NAME}){_SPACE}(?P<p>{_IRI_OR_NAME}){_SPACE}"
    rf"(?P<o>{_IRI_OR_NAME}|{_WHOLE_LITERAL}){_SPACE}\.|)", re.DOTALL)
_SKIP_SPACE = re.compile(_SPACE).match
_SKIP_NAME = re.compile(_NAME).match
_SKIP_IRI_BODY = re.compile(_IRI_BODY).match
_SKIP_LITERAL_BODY = re.compile(_LITERAL_BODY, re.DOTALL).match

_ESCAPE = re.compile(r'\\(?:[tbnrf"\\]|u[0-9A-Fa-f]{4}'
                     r"|U00(?:0[0-9A-Fa-f]|10)[0-9A-Fa-f]{4}|(?P<bad>.?))", re.DOTALL)
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}


def _unescape(m: re.Match) -> str:
    esc = m.group()
    if m.lastgroup == "bad":
        raise ValueError(esc)
    return _ESCAPES[esc[1]] if len(esc) == 2 else chr(int(esc[2:], 16))


def _error_at(text: str, at: int, message: str) -> TurtleParseError:
    line = text.count("\n", 0, at) + 1
    return TurtleParseError(message, line, at - text.rfind("\n", 0, at))


def _expected(text: str, at: int, token: str) -> TurtleParseError:
    found = repr(text[at]) if at < len(text) else "end of input"
    return _error_at(text, at, f"expected {token!r}, found {found}")


class _Memo(dict):
    """Written text -> term, made by ``make`` on the first miss."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, written: str):
        term = self[written] = self.make(written)
        return term


def parse_turtle(text: str) -> list[Triple]:
    """Parse a document into triples, in document order.

    The whole document is parsed before anything is returned, so a
    syntax error never yields partial results.
    """
    prefixes: dict[str, str] = {}
    iris = _Memo(Iri)  # one checked ``Iri`` per iri text
    new = tuple.__new__  # unchecked: ``iris`` checks iri refs; the rest holds by grammar

    def term(written: str):
        if written[0] == "<":
            return iris[written[1:-1]]
        if written[0] == '"':
            end = _SKIP_LITERAL_BODY(written, 1).end()
            lexical, datatype = written[1:end], written[end + 3:]
            if "\\" in lexical:
                lexical = _ESCAPE.sub(_unescape, lexical)
            return new(Literal, (lexical, terms[datatype] if datatype else None))
        # a namespace checked at its @prefix plus _LOCAL's characters is an iri
        prefix, _, local = written.partition(":")
        value = prefixes[prefix] + local
        return iris.setdefault(value, new(Iri, (value,)))

    # one term per distinct written term while the prefixes stand
    terms = _Memo(term)
    triples: list[Triple] = []
    for m in _STATEMENT.finditer(text):
        name, ns, s, p, o = m.groups()
        try:
            if o is None:
                if ns is None:
                    break
                prefixes[name] = iris[ns].value
                terms = _Memo(term)
                continue
            triples.append(new(Triple, (terms[s], terms[p], terms[o])))
        except (KeyError, ValueError, ValidationError):
            break
    if m.lastindex is None and m.end() == len(text):
        return triples
    raise _statement_error(text, m.start(), prefixes)


def _statement_error(text: str, at: int, prefixes: dict) -> TurtleParseError:
    """Walk the statement at ``at`` token by token to say why it does not
    parse; a bad term in it raises at once."""
    m = _TOKEN.match(text, at)
    if m.lastgroup == "prefix":
        _check_iri(text, m, "ns")
    else:
        for position in ("subject", "predicate", "object"):
            _check_term(text, m, prefixes, position)
            m = _TOKEN.match(text, m.end())
        # the token here may be a name that starts with the closing '.'
        if not text.startswith(".", m.start(m.lastgroup)):
            return _syntax_error(text, m.start(m.lastgroup), "end")
    raise RuntimeError(f"_STATEMENT refused the statement at {at} that _TOKEN takes")


def _check_term(text: str, m: re.Match, prefixes: dict, position: str):
    """Raise if the token ``m`` is no term that may stand in ``position``."""
    kind = m.lastgroup
    if kind == "pname":
        _check_declared(text, m, prefixes, "pfx")
    elif kind == "iri":
        _check_iri(text, m, "ref")
    elif kind != "literal" or position != "object":
        raise _syntax_error(text, m.start(kind), position)
    else:
        _check_escapes(text, m.start("lex"), m.end("lex"))
        if m["dt_ref"] is not None:
            _check_iri(text, m, "dt_ref")
        elif m["dt_pfx"] is not None:
            _check_declared(text, m, prefixes, "dt_pfx")


def _check_iri(text: str, m: re.Match, ref: str):
    """Raise if the iri ref whose body is group ``ref`` of ``m`` is no iri."""
    if not m[ref]:
        raise _error_at(text, m.end(ref) + 1, "empty iri")
    try:
        Iri(m[ref])
    except ValidationError as exc:
        raise _error_at(text, m.start(ref) - 1, str(exc)) from None


def _check_declared(text: str, m: re.Match, prefixes: dict, prefix: str):
    """Raise if the prefix in group ``prefix`` of ``m`` is not declared."""
    if m[prefix] not in prefixes:
        raise _error_at(text, m.start(prefix), f"undeclared prefix {m[prefix]!r}")


def _syntax_error(text: str, at: int, expected: str) -> TurtleParseError:
    """Say why the token at ``at`` cannot stand where ``expected`` is due:
    "subject", "predicate", "object" or the "end" of a statement."""
    c = text[at:at + 1]
    if expected == "end":
        if c and c in ";,":
            return _error_at(text, at, "predicate/object lists are not supported")
        if not c:
            return _error_at(text, at, "statement missing final '.'")
        return _expected(text, at, ".")
    if c == "@" and expected == "subject":
        return _prefix_error(text, at)
    if c == "<":
        return _iri_error(text, at)
    if c == "_":
        return _error_at(text, at, "blank nodes are not supported")
    if c == '"':
        if expected != "object":
            return _error_at(text, at, f"literal not allowed in {expected} position")
        return _literal_error(text, at)
    if _SKIP_NAME(text, at).end() > at:
        return _pname_error(text, at)
    if expected == "object":
        return _error_at(text, at, f"expected term in object position, found {c!r}")
    return _error_at(text, at, f"expected iri in {expected} position, found {c!r}")


def _iri_error(text: str, at: int) -> TurtleParseError:
    end = _SKIP_IRI_BODY(text, at + 1).end()
    return _error_at(text, end, "unterminated iri" if end == len(text)
                     else "newline inside iri")


def _pname_error(text: str, at: int) -> TurtleParseError:
    end = _SKIP_NAME(text, at).end()
    return _error_at(text, end, f"expected ':' after prefix {text[at:end]!r}")


def _check_escapes(text: str, start: int, end: int):
    """Raise for the first bad escape in ``text[start:end]``."""
    for m in _ESCAPE.finditer(text, start, end):
        bad = m["bad"]
        if bad is not None:
            raise _error_at(text, m.start(), "dangling escape" if not bad
                            else f"bad \\{bad} escape" if bad in "uU"
                            else f"unknown escape \\{bad}")


def _literal_error(text: str, at: int) -> TurtleParseError:
    end = _SKIP_LITERAL_BODY(text, at + 1).end()
    _check_escapes(text, at + 1, end + 1)
    if end == len(text):
        return _error_at(text, end, "unterminated literal")
    end += 1
    if text.startswith("@", end):
        return _error_at(text, end, "language tags are not supported")
    if not text.startswith("^", end + 1):
        return _expected(text, end + 1, "^")
    if text.startswith("<", end + 2):
        return _iri_error(text, end + 2)
    return _pname_error(text, end + 2)


def _prefix_error(text: str, at: int) -> TurtleParseError:
    if not text.startswith("@prefix", at):
        return _error_at(text, at, "malformed @prefix directive")
    at = _SKIP_NAME(text, _SKIP_SPACE(text, at + 7).end()).end()
    if not text.startswith(":", at):
        return _expected(text, at, ":")
    at = _SKIP_SPACE(text, at + 1).end()
    if not text.startswith("<", at):
        return _expected(text, at, "<")
    m = _TOKEN.match(text, at)
    if m.lastgroup != "iri":
        return _iri_error(text, at)
    _check_iri(text, m, "ref")
    return _expected(text, _SKIP_SPACE(text, m.end()).end(), ".")


_DUMP_PREFIXES = (("kgmas", KGMAS_NS), ("xsd", XSD_NS))
_IS_LOCAL = re.compile(_LOCAL).fullmatch
_LITERAL_ESCAPES = str.maketrans({
    **{chr(c): f"\\u{c:04x}" for c in range(0x20)},
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]').search  # the table's keys (translate: ~1 us)


def _render_iri(iri: Iri) -> str:
    for prefix, ns in _DUMP_PREFIXES:
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if local and _IS_LOCAL(local):
                return f"{prefix}:{local}"
    return f"<{iri.value}>"


class _Rendered(dict):
    """Each distinct term of one dump rendered once."""

    def __missing__(self, term) -> str:
        if isinstance(term, Iri):
            text = _render_iri(term)
        else:
            lex = term.lexical
            text = f'"{lex.translate(_LITERAL_ESCAPES) if _NEEDS_ESCAPE(lex) else lex}"'
            if term.datatype is not None:
                text += f"^^{self[term.datatype]}"
        self[term] = text
        return text


def render_term(term) -> str:
    """One term as a dump writes it."""
    return _Rendered()[term]


def serialize_turtle(triples) -> str:
    """Render triples as a canonical document.

    ``triples`` is a store index (subject text -> predicate text -> triples
    sorted by object) or any iterable of triples, first grouped that way.
    Walking it in text order makes equal graphs byte-equal documents. Prefix
    declarations always appear. Each distinct term is rendered once per call.
    """
    index = triples
    if not isinstance(index, dict):
        index = {}
        for t in sorted(set(triples), key=triple_key):
            index.setdefault(t.subject.value, {}).setdefault(t.predicate.value, []).append(t)
    lines = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in _DUMP_PREFIXES] + [""]
    rendered = _Rendered()
    for s in sorted(index):
        predicates = index[s]
        for p in sorted(predicates):
            for subject, predicate, obj in predicates[p]:
                lines.append(f"{rendered[subject]} {rendered[predicate]} {rendered[obj]} .")
    return "\n".join(lines) + "\n"
