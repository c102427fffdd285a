"""Minimal immutable RDF data model: terms, triples, and a set-semantics graph.

The model is deliberately small: just enough to hold ontology header
triples. Graphs are value objects; iteration order is deterministic
(sorted by the canonical string form of subject, predicate, object), so
everything downstream of a graph is reproducible regardless of source
file ordering. A graph indexes its triples by subject and by predicate
on its first ``match``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .exceptions import RdfModelError

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_FORBIDDEN_IRI_CHARS = set(' \t\n\r\x0b\x0c<>"')
# What an IRIREF cannot hold as it is: the forbidden characters above, and
# the rest, which an N-Triples token writes as \u00XX.
_IRIREF_ESCAPE_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_LANG_RE = re.compile(r"^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$")
_BNODE_LABEL_RE = re.compile(r"^[A-Za-z0-9_]+$")


def is_absolute_iri(value: str) -> bool:
    """True when the string starts with a scheme and contains no character
    forbidden in an IRI."""
    return bool(
        value
        and _SCHEME_RE.match(value)
        and not _FORBIDDEN_IRI_CHARS.intersection(value)
    )


@dataclass(frozen=True, order=True)
class Iri:
    """An absolute IRI. Validation is syntactic-lite: a scheme must be
    present and whitespace, angle brackets, and quotes are rejected."""

    value: str
    # The N-Triples token of an IRI that holds a character IRIREF forbids;
    # None for any other IRI, whose token is its value in angle brackets.
    _token = None

    def __post_init__(self):
        if not self.value:
            raise RdfModelError("IRI must be non-empty")
        if not _SCHEME_RE.match(self.value):
            raise RdfModelError(f"IRI lacks a scheme: {self.value!r}")
        if _IRIREF_ESCAPE_RE.search(self.value):
            bad = _FORBIDDEN_IRI_CHARS.intersection(self.value)
            if bad:
                raise RdfModelError(
                    f"IRI contains forbidden character(s) {''.join(sorted(bad))!r}: {self.value!r}"
                )
            token = _IRIREF_ESCAPE_RE.sub(lambda m: f"\\u{ord(m.group()):04X}", self.value)
            object.__setattr__(self, "_token", f"<{token}>")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Literal:
    """A literal term. A language tag and a datatype are mutually
    exclusive; the primary language subtag is normalized to lowercase."""

    lexical: str
    lang: Optional[str] = None
    datatype: Optional["Iri"] = None

    def __post_init__(self):
        if self.lang is not None and self.datatype is not None:
            raise RdfModelError("literal cannot carry both a language tag and a datatype")
        if self.lang is not None:
            if not _LANG_RE.match(self.lang):
                raise RdfModelError(f"malformed language tag: {self.lang!r}")
            head, sep, rest = self.lang.partition("-")
            object.__setattr__(self, "lang", head.lower() + sep + rest)
        if self.datatype is not None and not isinstance(self.datatype, Iri):
            raise RdfModelError("literal datatype must be an Iri")


@dataclass(frozen=True)
class BlankNode:
    """A blank node with a session-local label, stable within one document."""

    label: str

    def __post_init__(self):
        if not _BNODE_LABEL_RE.match(self.label):
            raise RdfModelError(f"malformed blank node label: {self.label!r}")


Term = Union[Iri, Literal, BlankNode]

_LEXICAL_ESCAPES = {chr(code): f"\\u{code:04X}" for code in (*range(0x20), 0x7F)}
_LEXICAL_ESCAPES.update({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_LEXICAL_ESCAPE_RE = re.compile(r'[\\"\x00-\x1f\x7f]')


def _escape_lexical(text: str) -> str:
    return _LEXICAL_ESCAPE_RE.sub(lambda m: _LEXICAL_ESCAPES[m.group()], text)


def nt(term: Term) -> str:
    """Canonical N-Triples token for a term.

    This single rendering doubles as the graph ordering key and as the
    serializer's term formatter, so order and output can never drift apart.
    """
    if isinstance(term, Iri):
        return term._token or f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape_lexical(term.lexical)}"'
        if term.lang is not None:
            return f"{body}@{term.lang}"
        if term.datatype is not None:
            return f"{body}^^{nt(term.datatype)}"
        return body
    raise RdfModelError(f"not an RDF term: {term!r}")


@dataclass(frozen=True)
class Triple:
    subject: Union[Iri, BlankNode]
    predicate: Iri
    object: Term

    def __post_init__(self):
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise RdfModelError(
                f"triple subject must be an IRI or blank node, got {type(self.subject).__name__}"
            )
        if not isinstance(self.predicate, Iri):
            raise RdfModelError(
                f"triple predicate must be an IRI, got {type(self.predicate).__name__}"
            )
        if not isinstance(self.object, (Iri, Literal, BlankNode)):
            raise RdfModelError(
                f"triple object must be an RDF term, got {type(self.object).__name__}"
            )


def _triple_key(t: Triple) -> Tuple[str, str, str]:
    return (nt(t.subject), nt(t.predicate), nt(t.object))


class Graph:
    """An immutable set of triples with deterministic iteration order.

    Duplicate triples collapse silently (set semantics). The triples are
    stored once, unordered; iteration and ``match`` results are sorted
    by :func:`nt` of subject, predicate and object when asked for. The
    first ``match`` indexes the triples by subject and by predicate.
    ``insert`` returns a new graph; for bulk construction pass an
    iterable to the constructor.
    """

    __slots__ = ("_triples", "_index")

    def __init__(self, triples: Iterable[Triple] = ()):
        items = tuple(triples)
        for t in items:
            if not isinstance(t, Triple):
                raise RdfModelError(f"graph elements must be triples, got {type(t).__name__}")
        self._triples = frozenset(items)
        self._index: Optional[Tuple[Dict[Term, List[Triple]], Dict[Iri, List[Triple]]]] = None

    def insert(self, t: Triple) -> "Graph":
        if not isinstance(t, Triple):
            raise RdfModelError(f"cannot insert {type(t).__name__} into a graph")
        if t in self._triples:
            return self
        # the stored triples are checked already, and the union reuses their hashes
        g = Graph.__new__(Graph)
        g._triples, g._index = self._triples | {t}, None
        return g

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> List[Triple]:
        """All triples equal to the pattern on each bound position.

        Absent arguments are wildcards; results follow graph iteration order.
        """
        if self._index is None:
            self._index = ({}, {})
            for t in self._triples:
                self._index[0].setdefault(t.subject, []).append(t)
                self._index[1].setdefault(t.predicate, []).append(t)
        # a triple listed under a key equals the pattern on that key
        if s is not None:
            candidates = self._index[0].get(s, ())
        elif p is not None:
            candidates, p = self._index[1].get(p, ()), None
        else:
            candidates = self._triples
        hits = [
            t
            for t in candidates
            if (p is None or t.predicate == p) and (o is None or t.object == o)
        ]
        if len(hits) > 1:
            hits.sort(key=_triple_key)
        return hits

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=_triple_key))

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"
