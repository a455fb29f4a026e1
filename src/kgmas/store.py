"""In-memory named-graph triple store.

Each graph is an index that every write updates in place: subject ->
predicate -> the stored triples sorted by object, and predicate ->
subjects. Writes touch only the entries they name and reads walk the
index, so costs follow the facts involved, not the size of the graph.
Every write inserts through one loop that reads a triple's entry once;
only an entry that already exists is searched for the triple. ``about``
copies one subject's predicate -> triples map under one lock, so a
reader reads each node once. ``rows``, the one multi-predicate read,
answers a whole question under one lock with the index's own immutable
entries, the only copy of a graph.
A store-wide revision counter advances by exactly one on every write
call that names at least one triple or fact, whether or not the graph
changes; a call that names nothing leaves it alone. Writers serialize on
one lock; ``atomic_update`` applies removals then insertions as one
revision step, so state publication never exposes a half-updated entity.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError
from .terms import Iri, Pattern, Term, Triple, Variable, term_key
from .turtle import parse_turtle, serialize_turtle


def _graph_key(graph_id: Iri | str) -> str:
    if isinstance(graph_id, Iri):
        return graph_id.value
    if isinstance(graph_id, str) and graph_id:
        return graph_id
    raise ValidationError(f"bad graph id: {graph_id!r}")


def _object_key(triple: Triple) -> tuple:
    return term_key(triple.object)


class _Graph:
    """One graph's index, keyed by iri text."""

    __slots__ = ("spo", "subjects")

    def __init__(self):
        self.spo: dict[str, dict[str, tuple[Triple, ...]]] = {}
        self.subjects: dict[str, dict[str, Iri]] = {}

    def __iter__(self) -> Iterator[Triple]:
        return (t for predicates in self.spo.values()
                for triples in predicates.values() for t in triples)

    def match(self, subject, predicate) -> Iterable[Triple]:
        """Triples with the given subject and predicate; None matches any."""
        s = subject.value if isinstance(subject, Iri) else subject
        p = predicate.value if isinstance(predicate, Iri) else predicate
        if s is not None:
            predicates = self.spo.get(s, {})
            if p is not None:
                return predicates.get(p, ())
            return [t for triples in predicates.values() for t in triples]
        if p is not None:
            return [t for s in self.subjects.get(p, ()) for t in self.spo[s][p]]
        return self

    def put(self, subject: Iri, predicate: Iri, triples: tuple[Triple, ...]) -> None:
        """Set one (subject, predicate) entry, sorted by object; empty drops it."""
        s, p = subject.value, predicate.value
        predicates = self.spo.get(s)
        if triples == (predicates or {}).get(p, ()):
            return
        if triples:
            if predicates is None:
                predicates = self.spo[s] = {}
            predicates[p] = triples
            self.subjects.setdefault(p, {})[s] = subject
            return
        del predicates[p]
        if not predicates:
            del self.spo[s]
        del self.subjects[p][s]

    def apply(self, removals: Iterable[Triple], insertions: Iterable[Triple]) -> int:
        """Remove then insert one triple at a time; returns how many changed the graph."""
        # An entry is sorted by object, which alone tells its triples apart.
        changed = 0
        for t in removals:
            old = self.match(t.subject, t.predicate)
            i = bisect.bisect_left(old, term_key(t.object), key=_object_key)
            if i < len(old) and old[i] == t:
                self.put(t.subject, t.predicate, old[:i] + old[i + 1:])
                changed += 1
        spo = self.spo
        for t in insertions:
            subject, predicate, obj = t
            s, p = subject.value, predicate.value
            predicates = spo.get(s)
            if predicates is None:
                predicates = spo[s] = {}
            old = predicates.get(p)
            if old is None:  # a new entry: nothing to search
                predicates[p] = (t,)
                self.subjects.setdefault(p, {})[s] = subject
            else:
                i = bisect.bisect_left(old, term_key(obj), key=_object_key)
                if i < len(old) and old[i] == t:
                    continue
                predicates[p] = old[:i] + (t,) + old[i:]
            changed += 1
        return changed


_NO_GRAPH = _Graph()
_SEQUENCES = (list, tuple)


def objects_of(about: Mapping[str, tuple[Triple, ...]], predicate: Iri) -> tuple[Term, ...]:
    """Objects of one predicate in a map ``NamedGraphStore.about`` returned,
    in term order."""
    return tuple([t.object for t in about.get(predicate.value, ())])


class NamedGraphStore:
    """Thread-safe store of named triple graphs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._graphs: dict[str, _Graph] = {}
        self._revision = 0

    @property
    def revision(self) -> int:
        with self._lock:
            return self._revision

    def triples(self, graph_id: Iri | str) -> frozenset[Triple]:
        """Immutable copy of one graph; empty for unknown graph names."""
        key = _graph_key(graph_id)
        with self._lock:
            return frozenset(self._graphs.get(key, _NO_GRAPH))

    def about(self, graph_id: Iri | str, subject: Iri) -> dict[str, tuple[Triple, ...]]:
        """Copy of one subject's predicate -> triples map, keyed by predicate
        iri text; each entry is the index's own tuple, sorted by object."""
        key = _graph_key(graph_id)
        with self._lock:
            return dict(self._graphs.get(key, _NO_GRAPH).spo.get(subject.value, {}))

    def rows(self, graph_id: Iri | str, predicate: Iri, *more: Iri) -> list[tuple]:
        """Rows ``(subject, entry, ...)`` for the subjects that carry every
        given predicate, sorted by iri. Each entry is the index's own tuple
        of one predicate's triples. Only the smallest subject set is walked.
        Plain loops build the rows, with no comprehension and no per-row list."""
        key = _graph_key(graph_id)
        texts = [predicate.value]
        for other in more:
            texts.append(other.value)
        found = []
        with self._lock:
            graph = self._graphs.get(key, _NO_GRAPH)
            smallest = None
            for p in texts:
                carrying = graph.subjects.get(p, {})
                if smallest is None or len(carrying) < len(smallest):
                    smallest = carrying
            for text in sorted(smallest):  # sorting (text, Iri) pairs costs 3x more
                row, predicates = (smallest[text],), graph.spo[text]
                for p in texts:
                    if (entry := predicates.get(p)) is None:
                        break
                    row += (entry,)
                else:
                    found.append(row)
        return found

    # -- mutation ---------------------------------------------------------

    def insert(self, graph_id: Iri | str, triple: Triple) -> bool:
        """Add one triple as one revision step. Returns False if present."""
        return self._update(graph_id, (), [triple])[0] > 0

    def remove(self, graph_id: Iri | str, triple: Triple) -> bool:
        """Remove one triple as one revision step. Returns False if absent."""
        return self._update(graph_id, [triple], ())[0] > 0

    def atomic_update(self, graph_id: Iri | str,
                      removals: Iterable[Triple],
                      insertions: Iterable[Triple]) -> int:
        """Apply removals then insertions as one revision step.

        Even a write that leaves the triple set unchanged is a step, so
        repeated identical state publications remain observable. Returns
        the revision after the update.
        """
        return self._update(graph_id, removals, insertions)[1]

    def _update(self, graph_id: Iri | str, removals: Iterable[Triple],
                insertions: Iterable[Triple]) -> tuple[int, int]:
        """One write step; returns (triples that changed the graph, revision after)."""
        key = _graph_key(graph_id)
        removals, insertions = list(removals), list(insertions)
        for triple in (*removals, *insertions):
            if not isinstance(triple, Triple):
                raise ValidationError(f"not a triple: {triple!r}")
        return self._write(key, removals, insertions)

    def _write(self, key: str, removals: Sequence[Triple],
               insertions: Sequence[Triple]) -> tuple[int, int]:
        """``_update``'s step for triples already checked, under one lock."""
        with self._lock:
            if not (removals or insertions):
                return 0, self._revision
            self._revision += 1
            graph = self._graphs[key] = self._graphs.get(key) or _Graph()
            return graph.apply(removals, insertions), self._revision

    def replace(self, graph_id: Iri | str,
                subject: Iri, facts: Mapping[Iri, Iterable]) -> int:
        """Replace all values of the given predicates for one subject.

        Every existing (subject, predicate, *) triple for a predicate in
        ``facts`` is dropped and the new objects inserted, as one
        revision step, touching only those entries; a bad term raises first.
        """
        key = _graph_key(graph_id)
        iris = isinstance(subject, Iri)
        for predicate in facts:
            iris = iris and isinstance(predicate, Iri)
        if not iris:
            raise ValidationError(f"replace needs iris: {subject!r}, {list(facts)!r}")
        entries = []
        for predicate, objects in facts.items():
            if type(objects) in _SEQUENCES and len(objects) == 1:  # the usual fact
                entries.append((predicate, (Triple(subject, predicate, objects[0]),)))
                continue
            triples = {Triple(subject, predicate, obj) for obj in objects}  # checks each obj
            entries.append((predicate, tuple(sorted(triples, key=_object_key))))
        with self._lock:
            if entries:
                self._revision += 1
                graph = self._graphs[key] = self._graphs.get(key) or _Graph()
                for predicate, triples in entries:
                    graph.put(subject, predicate, triples)
            return self._revision

    # -- serialization ----------------------------------------------------

    def load_turtle(self, graph_id: Iri | str, text: str) -> int:
        """Parse a document and merge its triples into one graph.

        Parsing happens entirely before the store is touched, so a
        syntax error leaves both graph and revision unchanged. Returns
        the number of triples the document added to the graph.
        """
        key = _graph_key(graph_id)  # a bad graph id fails before the document is parsed
        return self._write(key, (), parse_turtle(text))[0]  # it returns only Triples

    def dump_turtle(self, graph_id: Iri | str) -> str:
        """A graph's canonical document, from its sorted index copied under the lock."""
        key = _graph_key(graph_id)
        with self._lock:
            index = {s: dict(ps) for s, ps in self._graphs.get(key, _NO_GRAPH).spo.items()}
        return serialize_turtle(index)

    # -- query ------------------------------------------------------------

    def query(self, graph_id: Iri | str,
              patterns: Iterable[Pattern]) -> list[dict[str, Term]]:
        """Evaluate a basic graph pattern against one graph revision.

        Patterns sharing variables join naturally. Solutions bind every
        variable that occurs in the patterns, contain no duplicates and
        come back in a deterministic order for a fixed revision.
        Once the binding so far fixes a pattern's subject or predicate,
        its candidates come from that index instead of the whole graph.
        """
        patterns = list(patterns)
        if not patterns:
            raise ValidationError("empty pattern list")
        for pattern in patterns:
            if not isinstance(pattern, Pattern):
                raise ValidationError(f"not a pattern: {pattern!r}")
        key = _graph_key(graph_id)

        solutions: list[dict[str, Term]] = [{}]
        with self._lock:
            graph = self._graphs.get(key, _NO_GRAPH)
            for pattern in patterns:
                slots = (pattern.subject, pattern.predicate, pattern.object)
                next_solutions = []
                for binding in solutions:
                    subject, predicate = (binding.get(slot.name)
                                          if isinstance(slot, Variable) else slot
                                          for slot in slots[:2])
                    for triple in graph.match(subject, predicate):
                        extended = dict(binding)
                        if all((extended.setdefault(slot.name, value)
                                if isinstance(slot, Variable) else slot) == value
                               for slot, value in zip(slots, triple)):
                            next_solutions.append(extended)
                solutions = next_solutions

        unique = {tuple((name, term_key(b[name])) for name in sorted(b)): b
                  for b in solutions}
        return [unique[k] for k in sorted(unique)]
