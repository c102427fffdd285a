"""Minimal immutable RDF data model: terms, triples, and a set-semantics graph.

The model is deliberately small: just enough to hold ontology header
triples. Graphs are value objects; iteration order is deterministic
(sorted by the N-Triples line of each triple, :func:`nt_line`), so
everything downstream of a graph is reproducible regardless of source
file ordering. A graph indexes its triples by subject on its first
``match`` with a subject.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

from .exceptions import RdfModelError

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_FORBIDDEN_IRI_CHARS = set(' \t\n\r\x0b\x0c<>"')
# What an IRIREF cannot hold as is (a class body): the characters above, and the
# rest, which an N-Triples token writes as \u00XX; rdfio's IRI terminal excludes it.
_IRIREF_EXCLUDED = r'\x00-\x20<>"{}|^`\\'
_IRIREF_ESCAPE_RE = re.compile(f"[{_IRIREF_EXCLUDED}]")
_LANG_RE = re.compile(r"^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$")
_BNODE_LABEL_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _reject_surrogate(text: str, what: str) -> None:
    try:
        text.encode()
    except UnicodeEncodeError as exc:  # a lone surrogate, which no UTF-8 text holds
        raise RdfModelError(f"lone surrogate U+{ord(text[exc.start]):04X} in {what}") from None


def is_absolute_iri(value: str) -> bool:
    """True when the string starts with a scheme and contains no character
    forbidden in an IRI."""
    return bool(
        value
        and _SCHEME_RE.match(value)
        and not _FORBIDDEN_IRI_CHARS.intersection(value)
    )


@dataclass(frozen=True)
class Iri:
    """An absolute IRI. Validation is syntactic-lite: a scheme is required;
    whitespace, angle brackets, quotes and lone surrogates are rejected."""

    value: str
    # The N-Triples token of an IRI that holds a character IRIREF forbids;
    # None for any other IRI, whose token is its value in angle brackets.
    _token = None

    def __post_init__(self):
        if not self.value:
            raise RdfModelError("IRI must be non-empty")
        if not _SCHEME_RE.match(self.value):
            raise RdfModelError(f"IRI lacks a scheme: {self.value!r}")
        _reject_surrogate(self.value, "IRI")
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
        _reject_surrogate(self.lexical, "literal")
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
    """Canonical N-Triples token for a term; :func:`nt_line` joins three."""
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


def nt_line(t: Triple) -> str:
    """The N-Triples statement of ``t``: both the graph order key and the
    serializer's output, so that order and output cannot drift apart."""
    return f"{nt(t.subject)} {nt(t.predicate)} {nt(t.object)} .\n"


class Graph:
    """An immutable set of triples with deterministic iteration order.

    Duplicate triples collapse silently (set semantics). The triples are
    stored once, unordered; iteration and ``match`` results are sorted
    by :func:`nt_line` when asked for. The first ``match`` with a subject
    indexes the triples by subject; a ``match`` without one scans them.
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
        self._index: Optional[Dict[Term, List[Triple]]] = None

    def insert(self, t: Triple) -> "Graph":
        if not isinstance(t, Triple):
            raise RdfModelError(f"cannot insert {type(t).__name__} into a graph")
        if t in self._triples:
            return self
        # the stored triples are checked already, and the union reuses their hashes
        g = Graph.__new__(Graph)
        g._triples, g._index = self._triples | {t}, None
        return g

    def match(self, s: Optional[Term] = None, p: Optional[Iri] = None,
              o: Optional[Term] = None) -> List[Triple]:
        """All triples equal to the pattern on each bound position.

        Absent arguments are wildcards; results follow graph iteration order.
        """
        if s is not None and self._index is None:
            self._index = {}
            for t in self._triples:
                self._index.setdefault(t.subject, []).append(t)
        # a triple listed under a subject equals the pattern there
        candidates = self._triples if s is None else self._index.get(s, ())
        hits = [t for t in candidates
                if (p is None or t.predicate == p) and (o is None or t.object == o)]
        if len(hits) > 1:
            hits.sort(key=nt_line)
        return hits

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=nt_line))

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
