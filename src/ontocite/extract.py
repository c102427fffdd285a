"""Locate the ontology node in a graph and pull out bibliographic fields.

Every field is filled from a precedence ladder of properties (see
:mod:`ontocite.vocab`); the first rung with a usable value wins and later
rungs never override it. Creator names are normalized to surname plus
initials, organizations keep their group name. Output is deterministic
for any permutation of the input triples.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Sequence

from . import vocab
from .citation import Agent, is_acronym, is_calendar_date
from .exceptions import (
    EmptyNameError,
    MissingFieldError,
    NoOntologyNodeError,
    OntociteWarning,
    UnresolvableAgentError,
)
from .model import Graph, Iri, Literal, Term, Value

_DOTTED_VERSION_RE = re.compile(r"^v?[0-9]+(\.[0-9]+)*$")


class OntologyMetadata(Value):
    """Raw extracted header fields, before citation assembly."""

    __slots__ = _fields = ("ontology_iri", "title", "creators", "date", "version",
                           "revision", "format_label", "acronym")

    def __init__(self, ontology_iri: Iri, title: str | None = None,
                 creators: tuple[Agent, ...] = (), date: str | None = None,
                 version: str | None = None, revision: str | None = None,
                 format_label: str | None = None, acronym: str | None = None):
        object.__setattr__(self, "ontology_iri", ontology_iri)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "creators", creators)
        object.__setattr__(self, "date", date)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "revision", revision)
        object.__setattr__(self, "format_label", format_label)
        object.__setattr__(self, "acronym", acronym)


def find_ontology_iri(g: Graph) -> Iri:
    """The IRI subject typed as an ontology.

    With several candidates the lexicographically smallest wins and an
    :class:`OntociteWarning` is issued.
    """
    subjects = sorted(
        {t.subject for t in g.match(None, vocab.RDF_TYPE, vocab.OWL_ONTOLOGY)
         if isinstance(t.subject, Iri)}, key=str
    )
    if not subjects:
        raise NoOntologyNodeError(
            f"no subject typed <{vocab.OWL_ONTOLOGY.value}> found in the graph"
        )
    if len(subjects) > 1:
        others = ", ".join(f"<{s}>" for s in subjects[1:])
        warnings.warn(f"multiple ontology nodes; using <{subjects[0]}>, ignoring {others}",
                      OntociteWarning, stacklevel=2)
    return subjects[0]


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
        return Agent(surname=surname, initials=_initials_of(given) or None)
    tokens = name.split(" ")
    return Agent(surname=tokens[-1], initials=_initials_of(" ".join(tokens[:-1])) or None)


def _initials_of(given: str) -> str:
    parts = []
    for token in given.split():
        ch = token[0]
        if ch.isalpha():
            # one character per initial: "ß" upper-cases to "SS" and gives "S."
            parts.append(ch.upper()[0] + ".")
    return " ".join(parts)


def resolve_agent_name(g: Graph, t: Term) -> Agent:
    """Resolve a creator-property object to an :class:`Agent`.

    Literals are person names; IRI or blank nodes are looked up via their
    name properties, and nodes typed as organizations keep the group name
    verbatim.
    """
    if isinstance(t, Literal):
        return normalize_person_name(t.lexical)
    name = _node_name(g, t)
    if name is None:
        raise UnresolvableAgentError(t)
    if _is_organization(g, t):
        return Agent(surname=name, organization=True)
    return normalize_person_name(name)


def _node_name(g: Graph, node: Term) -> str | None:
    _, names = _rung_literals(g, node, vocab.AGENT_NAME_LADDER)
    if names:
        return min(v.lexical for v in names)
    _, given = _rung_literals(g, node, (vocab.FOAF_GIVEN_NAME,))
    _, family = _rung_literals(g, node, (vocab.FOAF_FAMILY_NAME,))
    if given and family:
        return f"{min(v.lexical for v in given)} {min(v.lexical for v in family)}"
    return None


def _is_organization(g: Graph, node: Term) -> bool:
    return any(
        g.match(node, vocab.RDF_TYPE, org_type) for org_type in vocab.ORGANIZATION_TYPES
    )


def _rung_literals(
    g: Graph, subject: Term, ladder: Sequence[Iri]
) -> tuple[Iri | None, list[Literal]]:
    """The first ladder property with a non-blank literal value, and those
    values; ``(None, [])`` when no rung has any."""
    for prop in ladder:
        values = [t.object for t in g.match(subject, prop, None)
                  if isinstance(t.object, Literal) and t.object.lexical.strip()]
        if values:
            return prop, values
    return None, []


def _preferred_literal(values: Sequence[Literal]) -> str | None:
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


def _normalize_date(value: str) -> str | None:
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


def extract_metadata(g: Graph, fmt: str | None = None) -> OntologyMetadata:
    """Extract the bibliographic fields feeding a citation record.

    Missing optional fields stay absent; only the ontology node itself is
    mandatory. Creators are sorted by surname, then initials; a creator
    that cannot be resolved is skipped with an :class:`OntociteWarning`.
    """
    onto = find_ontology_iri(g)

    title = _preferred_literal(_rung_literals(g, onto, vocab.TITLE_LADDER)[1])
    if title is not None:
        title = " ".join(title.split())

    creators: list[Agent] = []
    for prop in vocab.CREATOR_LADDER:
        objects = [t.object for t in g.match(onto, prop, None)]
        if not objects:
            continue
        for obj in objects:
            try:
                creators.append(resolve_agent_name(g, obj))
            except (UnresolvableAgentError, EmptyNameError) as exc:
                warnings.warn(f"skipping creator: {exc}", OntociteWarning, stacklevel=2)
        break
    creators.sort(key=lambda a: (a.surname, a.initials or ""))

    _, date_values = _rung_literals(g, onto, vocab.DATE_LADDER)
    date = min(filter(None, (_normalize_date(v.lexical) for v in date_values)), default=None)

    version_prop, version_values = _rung_literals(g, onto, vocab.VERSION_LADDER)
    version = min((_version_of(version_prop, v.lexical) for v in version_values), default=None)

    _, revisions = _rung_literals(g, onto, vocab.REVISION_LADDER)
    revision = min((v.lexical for v in revisions), default=None)

    acronym_prop, acronyms = _rung_literals(g, onto, vocab.ACRONYM_LADDER)
    acronym = min((v.lexical.strip() for v in acronyms), default=None)
    if acronym is not None and acronym_prop == vocab.VANN_PREFERRED_NAMESPACE_PREFIX:
        acronym = acronym.upper()

    return OntologyMetadata(
        ontology_iri=onto,
        title=title,
        creators=tuple(creators),
        date=date,
        version=version,
        revision=revision,
        format_label=fmt,
        acronym=acronym,
    )


_ACRONYM_SEPARATORS = "-–:"


def derive_acronym(meta: OntologyMetadata) -> tuple[str | None, str]:
    """Split the title into (acronym, full name).

    An explicit acronym property (``meta.acronym``) wins; otherwise a
    leading token separated by a dash, en-dash, or colon is the acronym
    when :func:`is_acronym` holds and none of its words is all lower case;
    otherwise there is no acronym and the full title is the name.
    """
    if not meta.title:
        raise MissingFieldError("title")
    title = meta.title
    split = _split_title(title)
    if meta.acronym:
        if split and split[0].casefold() == meta.acronym.casefold():
            return meta.acronym, split[1]
        return meta.acronym, title
    if split:
        return split
    return None, title


def _split_title(title: str) -> tuple[str, str] | None:
    for i, ch in enumerate(title):
        if ch not in _ACRONYM_SEPARATORS:
            continue
        token = title[:i].strip()
        rest = title[i + 1:].strip()
        if rest and is_acronym(token) and not any(word.islower() for word in token.split()):
            return token, rest
    return None
