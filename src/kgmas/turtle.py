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

The reader is one compiled pattern, ``_TOKEN``, after the tokenizer recipe
in the ``re`` docs: a match skips blanks and comments and takes one token,
which ``parse_turtle`` turns into a term at once. Only when a token does
not fit does ``_syntax_error`` look again to say why and where.
"""

from __future__ import annotations

import re

from .errors import TurtleParseError, ValidationError
from .terms import Iri, Literal, Triple, triple_key
from .vocab import KGMAS_NS, XSD_NS

_SPACE = r"[ \t\r\n]*(?:#[^\n]*(?:\n|\Z)[ \t\r\n]*)*"
_NAME = r"[A-Za-z0-9_.-]*"
# a local name does not end in '.': that dot closes the statement
_LOCAL = r"[A-Za-z0-9_-]*(?:\.(?=[A-Za-z0-9_.-])[A-Za-z0-9_-]*)*"
_IRI_BODY = r"[^>\r\n]*"
_LITERAL_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'

_TOKEN = re.compile(
    _SPACE + "(?:"
    rf"(?P<iri><(?P<ref>{_IRI_BODY})>)"
    # a term's prefix is not empty and does not start with '_' (a blank node)
    rf"|(?P<pname>(?P<pfx>[A-Za-z0-9.-]{_NAME}):(?P<local>{_LOCAL}))"
    rf'|(?P<literal>"(?P<lex>{_LITERAL_BODY})"(?:\^\^(?:<(?P<dt_ref>{_IRI_BODY})>'
    rf"|(?P<dt_pfx>{_NAME}):(?P<dt_local>{_LOCAL}))|(?![@^])))"
    rf"|(?P<prefix>@prefix{_SPACE}(?P<name>{_NAME}):{_SPACE}"
    rf"<(?P<ns>{_IRI_BODY})>{_SPACE}\.)"
    r"|(?P<end>[.;,])|(?P<eof>\Z)|(?P<other>))", re.DOTALL)

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


def _to_iri(text: str, m: re.Match, ref: str) -> Iri:
    """The iri of the iri ref whose body is group ``ref`` of ``m``."""
    if not m[ref]:
        raise _error_at(text, m.end(ref) + 1, "empty iri")
    try:
        return Iri(m[ref])
    except ValidationError as exc:
        raise _error_at(text, m.start(ref) - 1, str(exc)) from None


def _expand(text: str, m: re.Match, prefixes: dict, prefix: str, local: str) -> Iri:
    """The iri of the prefixed name in groups ``prefix`` and ``local``."""
    try:
        return Iri(prefixes[m[prefix]] + m[local])
    except KeyError:
        raise _error_at(text, m.start(prefix),
                        f"undeclared prefix {m[prefix]!r}") from None


def _term(text: str, m: re.Match, prefixes: dict[str, str], position: str):
    kind = m.lastgroup
    if kind == "pname":
        return _expand(text, m, prefixes, "pfx", "local")
    if kind == "iri":
        return _to_iri(text, m, "ref")
    if kind != "literal" or position != "object":
        raise _syntax_error(text, m.start(kind), position)
    lexical = m["lex"]
    if "\\" in lexical:
        try:
            lexical = _ESCAPE.sub(_unescape, lexical)
        except ValueError:
            _check_escapes(text, m.start("lex"), m.end("lex"))
    if m["dt_ref"] is not None:
        return Literal(lexical, _to_iri(text, m, "dt_ref"))
    if m["dt_pfx"] is not None:
        return Literal(lexical, _expand(text, m, prefixes, "dt_pfx", "dt_local"))
    return Literal(lexical)


def parse_turtle(text: str) -> list[Triple]:
    """Parse a document into triples, in document order.

    The whole document is parsed before anything is returned, so a
    syntax error never yields partial results.
    """
    match = _TOKEN.match
    prefixes: dict[str, str] = {}
    triples: list[Triple] = []
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        if kind == "eof":
            return triples
        if kind == "prefix":
            prefixes[m["name"]] = _to_iri(text, m, "ns").value
            pos = m.end()
            continue
        subject = _term(text, m, prefixes, "subject")
        m = match(text, m.end())
        predicate = _term(text, m, prefixes, "predicate")
        m = match(text, m.end())
        obj = _term(text, m, prefixes, "object")
        m = match(text, m.end())
        # the token here may be a name that starts with the closing '.'
        pos = m.start(m.lastgroup)
        if not text.startswith(".", pos):
            raise _syntax_error(text, pos, "end")
        triples.append(Triple(subject, predicate, obj))
        pos += 1


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
    _to_iri(text, m, "ref")
    return _expected(text, _SKIP_SPACE(text, m.end()).end(), ".")


_DUMP_PREFIXES = (("kgmas", KGMAS_NS), ("xsd", XSD_NS))
_IS_LOCAL = re.compile(_LOCAL).fullmatch
_LITERAL_ESCAPES = str.maketrans({
    **{chr(c): f"\\u{c:04x}" for c in range(0x20)},
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})


def _render_iri(iri: Iri) -> str:
    for prefix, ns in _DUMP_PREFIXES:
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if local and _IS_LOCAL(local):
                return f"{prefix}:{local}"
    return f"<{iri.value}>"


def _render_literal(lit: Literal) -> str:
    rendered = f'"{lit.lexical.translate(_LITERAL_ESCAPES)}"'
    if lit.datatype is not None:
        rendered += f"^^{_render_iri(lit.datatype)}"
    return rendered


def _render_term(term) -> str:
    return _render_iri(term) if isinstance(term, Iri) else _render_literal(term)


def serialize_turtle(triples) -> str:
    """Render triples as a canonical document.

    Prefix declarations always appear, even for an empty graph, and
    statements are sorted by (subject, predicate, object) so equal
    graphs serialize to byte-equal documents.
    """
    lines = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in _DUMP_PREFIXES]
    lines.append("")
    for triple in sorted(set(triples), key=triple_key):
        lines.append(f"{_render_term(triple.subject)} "
                     f"{_render_term(triple.predicate)} "
                     f"{_render_term(triple.object)} .")
    return "\n".join(lines) + "\n"
