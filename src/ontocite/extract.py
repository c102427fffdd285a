"""Locate the ontology node in a graph and pull out bibliographic fields.

Every field is filled from a precedence ladder of properties (see
:mod:`ontocite.vocab`); the first rung with a usable value wins and later
rungs never override it. Creator names are normalized to surname plus
initials, organizations keep their group name. Output is deterministic
for any permutation of the input triples.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import vocab
from .exceptions import (
    EmptyNameError,
    MissingFieldError,
    NoOntologyNodeError,
    UnresolvableAgentError,
)
from .model import BlankNode, Graph, Iri, Literal, Term

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_DOTTED_VERSION_RE = re.compile(r"^v?\d+(\.\d+)*$")


@dataclass(frozen=True)
class Agent:
    """One creator: a person (surname plus optional initials) or an
    organization (``surname`` holds the full group name).

    ``raw`` keeps the original name string for reporting; it is excluded
    from equality.
    """

    surname: str
    initials: Optional[str] = None
    organization: bool = False
    raw: str = field(default="", compare=False)


@dataclass(frozen=True)
class OntologyMetadata:
    """Raw extracted header fields, before citation assembly."""

    ontology_iri: Iri
    title: Optional[str] = None
    creators: Tuple[Agent, ...] = ()
    date: Optional[str] = None
    version: Optional[str] = None
    revision: Optional[str] = None
    format_label: Optional[str] = None
    publication_refs: Tuple[str, ...] = ()


def find_ontology_iri(g: Graph, warnings: Optional[List[str]] = None) -> Iri:
    """The IRI subject typed as an ontology.

    With several candidates the lexicographically smallest wins and a
    warning is appended to ``warnings`` (when given).
    """
    subjects = sorted(
        {t.subject.value for t in g.match(None, vocab.RDF_TYPE, vocab.OWL_ONTOLOGY)
         if isinstance(t.subject, Iri)}
    )
    if not subjects:
        raise NoOntologyNodeError(
            f"no subject typed <{vocab.OWL_ONTOLOGY.value}> found in the graph"
        )
    if len(subjects) > 1 and warnings is not None:
        others = ", ".join(f"<{s}>" for s in subjects[1:])
        warnings.append(f"multiple ontology nodes; using <{subjects[0]}>, ignoring {others}")
    return Iri(subjects[0])


def normalize_person_name(raw: str) -> Agent:
    """Normalize a person name to surname plus initials.

    ``"Surname, Given"`` keeps the surname and reduces the given part to
    initials; otherwise the last whitespace token is the surname
    (hyphenated tokens stay whole) and preceding tokens become initials.
    Single-token names yield a surname with no initials.
    """
    name = " ".join(raw.split())
    if not name:
        raise EmptyNameError(f"name is blank after trimming: {raw!r}")
    if "," in name:
        surname, _, given = name.partition(",")
        surname = surname.strip()
        if not surname:
            raise EmptyNameError(f"name has no surname part: {raw!r}")
        return Agent(surname=surname, initials=_initials_of(given) or None, raw=raw)
    tokens = name.split(" ")
    return Agent(
        surname=tokens[-1],
        initials=_initials_of(" ".join(tokens[:-1])) or None,
        raw=raw,
    )


def _initials_of(given: str) -> str:
    parts = []
    for token in given.split():
        ch = token[0]
        if ch.isalpha():
            parts.append(ch.upper() + ".")
    return " ".join(parts)


def resolve_agent_name(g: Graph, t: Term) -> Agent:
    """Resolve a creator-property object to an :class:`Agent`.

    Literals are person names; IRI or blank nodes are looked up via their
    name properties, and nodes typed as organizations keep the group name
    verbatim.
    """
    if isinstance(t, Literal):
        return normalize_person_name(t.lexical)
    if isinstance(t, (Iri, BlankNode)):
        name = _node_name(g, t)
        if name is None:
            raise UnresolvableAgentError(t)
        if _is_organization(g, t):
            return Agent(surname=name, organization=True, raw=name)
        return normalize_person_name(name)
    raise UnresolvableAgentError(t, f"creator object is not a resolvable term: {t!r}")


def _node_name(g: Graph, node: Term) -> Optional[str]:
    for prop in vocab.AGENT_NAME_LADDER:
        values = [t.object.lexical for t in g.match(node, prop, None)
                  if isinstance(t.object, Literal) and t.object.lexical.strip()]
        if values:
            return sorted(values)[0]
    given = [t.object.lexical for t in g.match(node, vocab.FOAF_GIVEN_NAME, None)
             if isinstance(t.object, Literal) and t.object.lexical.strip()]
    family = [t.object.lexical for t in g.match(node, vocab.FOAF_FAMILY_NAME, None)
              if isinstance(t.object, Literal) and t.object.lexical.strip()]
    if given and family:
        return f"{sorted(given)[0]} {sorted(family)[0]}"
    return None


def _is_organization(g: Graph, node: Term) -> bool:
    return any(
        g.match(node, vocab.RDF_TYPE, org_type) for org_type in vocab.ORGANIZATION_TYPES
    )


def _rung_literals(g: Graph, subject: Iri, ladder: Sequence[Iri]) -> List[Literal]:
    """Literal values of the first ladder property that has any."""
    for prop in ladder:
        values = [t.object for t in g.match(subject, prop, None)
                  if isinstance(t.object, Literal) and t.object.lexical.strip()]
        if values:
            return values
    return []


def _preferred_literal(values: Sequence[Literal]) -> Optional[str]:
    """Language selection: prefer "en", else the lexicographically first
    language tag, else the untagged literal."""
    if not values:
        return None
    english = sorted(v.lexical for v in values if v.lang == "en")
    if english:
        return english[0]
    tagged = sorted((v.lang, v.lexical) for v in values if v.lang is not None)
    if tagged:
        return tagged[0][1]
    return sorted(v.lexical for v in values)[0]


def is_calendar_date(value: str) -> bool:
    """True for a ``YYYY-MM-DD`` string that names a real calendar day."""
    m = _DATE_RE.match(value)
    if not m:
        return False
    try:
        datetime.date(*(int(part) for part in m.groups()))
    except ValueError:
        return False
    return True


def _normalize_date(value: str) -> Optional[str]:
    text = value.strip()
    if "T" in text:
        text = text.split("T", 1)[0]
    return text if is_calendar_date(text) else None


def _version_of(prop: Iri, value: str) -> str:
    # owl:versionInfo often mixes a version with a date or prose; keep the
    # first dotted-number token so the version stays machine-comparable.
    text = " ".join(value.split())
    if prop == vocab.OWL_VERSION_INFO:
        for token in text.split(" "):
            if _DOTTED_VERSION_RE.match(token):
                return token
    return text


def extract_metadata(
    g: Graph,
    fmt: Optional[str] = None,
    warnings: Optional[List[str]] = None,
) -> OntologyMetadata:
    """Extract the bibliographic fields feeding a citation record.

    Missing optional fields stay absent; only the ontology node itself is
    mandatory. Creators are sorted by surname, then initials.
    """
    onto = find_ontology_iri(g, warnings)

    title = _preferred_literal(_rung_literals(g, onto, vocab.TITLE_LADDER))

    creators: List[Agent] = []
    for prop in vocab.CREATOR_LADDER:
        objects = [t.object for t in g.match(onto, prop, None)]
        if not objects:
            continue
        for obj in objects:
            try:
                creators.append(resolve_agent_name(g, obj))
            except (UnresolvableAgentError, EmptyNameError) as exc:
                if warnings is not None:
                    warnings.append(f"skipping creator: {exc}")
        break
    creators.sort(key=lambda a: (a.surname, a.initials or ""))

    date: Optional[str] = None
    date_values = _rung_literals(g, onto, vocab.DATE_LADDER)
    normalized = sorted(d for d in (_normalize_date(v.lexical) for v in date_values) if d)
    if normalized:
        date = normalized[0]

    version: Optional[str] = None
    version_rung: List[str] = []
    for prop in vocab.VERSION_LADDER:
        values = [t.object for t in g.match(onto, prop, None)
                  if isinstance(t.object, Literal) and t.object.lexical.strip()]
        if values:
            version_rung = sorted(_version_of(prop, v.lexical) for v in values)
            break
    if version_rung:
        version = version_rung[0]

    revisions = sorted(t.object.lexical for t in g.match(onto, vocab.ONTOCITE_REVISION, None)
                       if isinstance(t.object, Literal) and t.object.lexical.strip())
    revision = revisions[0] if revisions else None

    publication_refs = tuple(
        t.object.lexical for t in g.match(onto, vocab.DCTERMS_REFERENCES, None)
        if isinstance(t.object, Literal)
    )

    return OntologyMetadata(
        ontology_iri=onto,
        title=title,
        creators=tuple(creators),
        date=date,
        version=version,
        revision=revision,
        format_label=fmt,
        publication_refs=publication_refs,
    )


_ACRONYM_SEPARATORS = "-–:"


def derive_acronym(meta: OntologyMetadata, g: Graph) -> Tuple[Optional[str], str]:
    """Split the title into (acronym, full name).

    An explicit acronym property wins; otherwise a short leading token
    separated by a dash, en-dash, or colon is treated as the acronym;
    otherwise there is no acronym and the full title is the name.
    """
    if not meta.title:
        raise MissingFieldError("title")
    title = meta.title
    split = _split_title(title)
    explicit = _explicit_acronym(g, meta.ontology_iri)
    if explicit:
        if split and split[0].casefold() == explicit.casefold():
            return explicit, split[1]
        return explicit, title
    if split:
        return split
    return None, title


def _explicit_acronym(g: Graph, onto: Iri) -> Optional[str]:
    for prop in vocab.ACRONYM_LADDER:
        values = sorted(t.object.lexical.strip() for t in g.match(onto, prop, None)
                        if isinstance(t.object, Literal) and t.object.lexical.strip())
        if values:
            value = values[0]
            if prop == vocab.VANN_PREFERRED_NAMESPACE_PREFIX:
                value = value.upper()
            return value
    return None


def _split_title(title: str) -> Optional[Tuple[str, str]]:
    for i, ch in enumerate(title):
        if ch not in _ACRONYM_SEPARATORS:
            continue
        token = title[:i].strip()
        rest = title[i + 1:].strip()
        if not token or not rest or len(token) > 10:
            continue
        if any(word.islower() for word in token.split()):
            continue
        return token, rest
    return None
