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
from collections.abc import Iterable, Iterator

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


# Sets a field in __init__; a name of its own, as Triple has a field "object".
_set = object.__setattr__


def _field_repr(value) -> str:
    """``repr(value)``, with a non-empty frozenset's members sorted by their
    repr: equal sets can iterate in different orders."""
    if isinstance(value, frozenset) and value:
        return "frozenset({" + ", ".join(sorted(map(repr, value))) + "})"
    return repr(value)


class Value:
    """Base of the immutable value classes. Each subclass names its fields
    in ``_fields``, in ``__init__`` order, and sets them in ``__init__``
    through ``object.__setattr__``; assigning or deleting an attribute
    afterwards raises AttributeError. Instances are equal when of the same
    class with equal fields, and hash, print and pickle by their fields; a
    frozenset field prints its members sorted by their repr."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Iri(Value):
    """An absolute IRI. Validation is syntactic-lite: a scheme is required;
    whitespace, angle brackets, quotes and lone surrogates are rejected."""

    _fields = ("value",)
    # _token: the N-Triples token of an IRI that holds a character IRIREF
    # forbids; None for any other IRI, whose token is its value in angle brackets.
    __slots__ = ("value", "_token")

    def __init__(self, value: str):
        if not value:
            raise RdfModelError("IRI must be non-empty")
        if not _SCHEME_RE.match(value):
            raise RdfModelError(f"IRI lacks a scheme: {value!r}")
        _reject_surrogate(value, "IRI")
        token = None
        if _IRIREF_ESCAPE_RE.search(value):
            bad = _FORBIDDEN_IRI_CHARS.intersection(value)
            if bad:
                raise RdfModelError(
                    f"IRI contains forbidden character(s) {''.join(sorted(bad))!r}: {value!r}"
                )
            token = "<" + _IRIREF_ESCAPE_RE.sub(lambda m: f"\\u{ord(m.group()):04X}", value) + ">"
        _set(self, "value", value)
        _set(self, "_token", token)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return self.value


class Literal(Value):
    """A literal term. A language tag and a datatype are mutually
    exclusive; the primary language subtag is normalized to lowercase."""

    __slots__ = _fields = ("lexical", "lang", "datatype")

    def __init__(self, lexical: str, lang: str | None = None,
                 datatype: Iri | None = None):
        _reject_surrogate(lexical, "literal")
        if lang is not None:
            if datatype is not None:
                raise RdfModelError("literal cannot carry both a language tag and a datatype")
            if not _LANG_RE.match(lang):
                raise RdfModelError(f"malformed language tag: {lang!r}")
            head, sep, rest = lang.partition("-")
            lang = head.lower() + sep + rest
        elif datatype is not None and not isinstance(datatype, Iri):
            raise RdfModelError("literal datatype must be an Iri")
        _set(self, "lexical", lexical)
        _set(self, "lang", lang)
        _set(self, "datatype", datatype)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.lexical, self.lang, self.datatype)
                == (other.lexical, other.lang, other.datatype))

    def __hash__(self) -> int:
        return hash((self.lexical, self.lang, self.datatype))


class BlankNode(Value):
    """A blank node with a session-local label, stable within one document."""

    __slots__ = _fields = ("label",)

    def __init__(self, label: str):
        if not _BNODE_LABEL_RE.match(label):
            raise RdfModelError(f"malformed blank node label: {label!r}")
        _set(self, "label", label)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label

    def __hash__(self) -> int:
        return hash(self.label)


Term = Iri | Literal | BlankNode

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


class Triple(Value):
    """One RDF statement: an IRI or blank node subject, an IRI predicate
    and any term as object."""

    __slots__ = _fields = ("subject", "predicate", "object")

    def __init__(self, subject: Iri | BlankNode, predicate: Iri, object: Term):
        if not isinstance(subject, (Iri, BlankNode)):
            raise RdfModelError(
                f"triple subject must be an IRI or blank node, got {type(subject).__name__}"
            )
        if not isinstance(predicate, Iri):
            raise RdfModelError(
                f"triple predicate must be an IRI, got {type(predicate).__name__}"
            )
        if not isinstance(object, (Iri, Literal, BlankNode)):
            raise RdfModelError(
                f"triple object must be an RDF term, got {type(object).__name__}"
            )
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # tuples compare identical (interned) terms without calling their __eq__
        return ((self.subject, self.predicate, self.object)
                == (other.subject, other.predicate, other.object))

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate, self.object))


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
        self._index: dict[Term, list[Triple]] | None = None

    def insert(self, t: Triple) -> "Graph":
        if not isinstance(t, Triple):
            raise RdfModelError(f"cannot insert {type(t).__name__} into a graph")
        if t in self._triples:
            return self
        # the stored triples are checked already, and the union reuses their hashes
        g = Graph.__new__(Graph)
        g._triples, g._index = self._triples | {t}, None
        return g

    def match(self, s: Term | None = None, p: Iri | None = None,
              o: Term | None = None) -> list[Triple]:
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
