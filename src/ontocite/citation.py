"""The citation record: assembly, rendering, and round-trip parsing.

The canonical plain-text form is::

    CREATORS (DATE). TITLE. [VERSION[(REVISION)]. ]URI[ [FORMATS]]

Creators render as ``Surname, I.`` joined with ``", "`` and ``" and "``
before the last; organizations render verbatim. The parser is the
inverse on rendered output and additionally tolerates a comma between
version and URI, an angle-bracketed URI, and surrounding whitespace
(see ``docs/grammar.abnf`` for the full grammar and its known
ambiguities).
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring
from collections.abc import Sequence

from .exceptions import CitationJsonError, CitationParseError, MissingFieldError, RdfModelError
from .extract import DATE_SHAPE, Agent, OntologyMetadata, is_acronym, is_initials
from .model import Iri, Value

_DATE_GROUP_RE = re.compile(rf"\(({DATE_SHAPE})\)\.(?= |$)")
_DATE_SHAPE_ANYWHERE_RE = re.compile(rf"\({DATE_SHAPE}\)\.")
#: A character of a version or revision: ``ver-char`` of docs/grammar.abnf,
#: printable ASCII other than "(" and ")".
VER_CHAR = r"[\x21-\x27\x2A-\x7E]"
_VERSION_TOKEN_RE = re.compile(rf"({VER_CHAR}+?)(?:\(({VER_CHAR}+)\))?")


class CitationRecord(Value):
    """One instance of the reference template."""

    __slots__ = _fields = ("creators", "date", "full_name", "uri", "acronym", "version",
                           "revision", "formats")

    def __init__(self, creators: Sequence[Agent], date: str, full_name: str, uri: Iri,
                 acronym: str | None = None, version: str | None = None,
                 revision: str | None = None, formats: Sequence[str] = ()):
        object.__setattr__(self, "creators", tuple(creators))
        object.__setattr__(self, "date", date)
        object.__setattr__(self, "full_name", full_name)
        object.__setattr__(self, "uri", uri)
        object.__setattr__(self, "acronym", acronym)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "revision", revision)
        object.__setattr__(self, "formats", tuple(formats))


def build_record(
    meta: OntologyMetadata, acronym_split: tuple[str | None, str]
) -> CitationRecord:
    """Assemble a record from extracted metadata.

    Creators, date, and title are hard requirements; everything else is
    optional and left to the validator to flag.
    """
    if not meta.creators:
        raise MissingFieldError("creator")
    if not meta.date:
        raise MissingFieldError("date")
    if not meta.title:
        raise MissingFieldError("title")
    return CitationRecord(**draft_fields(meta, acronym_split))


def draft_fields(
    meta: OntologyMetadata, acronym_split: tuple[str | None, str] | None
) -> dict[str, object]:
    """A partial, validator-ready field mapping: present fields only, no
    hard failures on missing ones. ``acronym_split`` is
    ``derive_acronym(meta)``, or None exactly when ``meta.title`` is empty."""
    fields: dict[str, object] = {}
    if meta.creators:
        fields["creators"] = list(meta.creators)
    if meta.date:
        fields["date"] = meta.date
    if acronym_split is not None:
        acronym, full_name = acronym_split
        if acronym:
            fields["acronym"] = acronym
        fields["full_name"] = full_name
    if meta.version:
        fields["version"] = meta.version
        if meta.revision:
            fields["revision"] = meta.revision
    fields["uri"] = meta.ontology_iri
    fields["formats"] = [meta.format_label] if meta.format_label else []
    return fields


# --- rendering ---------------------------------------------------------------


def _render_agent(agent: Agent) -> str:
    if agent.organization or not agent.initials:
        return agent.surname
    return f"{agent.surname}, {agent.initials}"


def _render_creators(creators: Sequence[Agent]) -> str:
    rendered = [_render_agent(a) for a in creators]
    if len(rendered) == 1:
        return rendered[0]
    return ", ".join(rendered[:-1]) + " and " + rendered[-1]


def _title_text(record: CitationRecord) -> str:
    if record.acronym:
        return f"{record.acronym}: {record.full_name}"
    return record.full_name


def _version_text(record: CitationRecord) -> str:
    if record.revision:
        return f"{record.version}({record.revision})"
    return record.version or ""


def render_canonical(record: CitationRecord) -> str:
    """The canonical plain-text reference for a record."""
    parts = [
        f"{_render_creators(record.creators)} ({record.date}).",
        f"{_title_text(record)}.",
    ]
    if record.version:
        parts.append(f"{_version_text(record)}.")
    parts.append(record.uri.value)
    if record.formats:
        parts.append("[" + ", ".join(record.formats) + "]")
    return " ".join(parts)


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-").lower()


def render_bibtex(record: CitationRecord) -> str:
    """A ``@misc`` BibTeX entry for the record; group names are
    double-braced so reference managers do not split them."""
    key = (record.acronym or _slug(record.full_name)) + record.date[:4]
    year, month, day = record.date.split("-")
    authors = ("{" + a.surname + "}" if a.organization else _render_agent(a)
               for a in record.creators)
    fields = [
        ("author", " and ".join(authors)),
        ("title", _title_text(record)),
        ("year", year),
        ("month", month),
        ("day", day),
        ("howpublished", record.uri.value),
    ]
    note_parts = []
    if record.version:
        note_parts.append(f"version {_version_text(record)}")
    if record.formats:
        note_parts.append(", ".join(record.formats))
    if note_parts:
        fields.append(("note", ", ".join(note_parts)))
    lines = [f"@misc{{{key},"]
    lines.extend(f"  {name} = {{{value}}}," for name, value in fields[:-1])
    last_name, last_value = fields[-1]
    lines.append(f"  {last_name} = {{{last_value}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def record_to_dict(record: CitationRecord) -> dict[str, object]:
    """Plain-data view with fixed key order; absent optionals are omitted."""
    creators = []
    for agent in record.creators:
        entry: dict[str, object] = {"surname": agent.surname}
        if agent.initials:
            entry["initials"] = agent.initials
        entry["organization"] = agent.organization
        creators.append(entry)
    data: dict[str, object] = {"creators": creators, "date": record.date}
    if record.acronym:
        data["acronym"] = record.acronym
    data["full_name"] = record.full_name
    if record.version:
        data["version"] = record.version
    if record.revision:
        data["revision"] = record.revision
    data["uri"] = record.uri.value
    data["formats"] = list(record.formats)
    return data


def _json_block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Encoded array items (or ``"key": value`` members, with ``brackets``
    ``"{}"``) laid out as ``json.dumps(..., indent=2)`` lays out a
    container that starts at ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def render_json(record: CitationRecord) -> str:
    """Canonical JSON for the record (schema in ``docs/citation.schema.json``);
    bit-identical for equal records, single trailing newline.

    ``record_to_dict`` is the record as plain data, and the bytes are those
    of ``json.dumps(record_to_dict(record), ensure_ascii=False, indent=2) +
    "\\n"``, byte for byte, written in the record's fixed layout: with
    ``indent`` set, ``json.dumps`` never uses its C encoder.
    Strings are quoted by ``encode_basestring``, as ``ensure_ascii=False``
    quotes them."""
    creators = []
    for agent in record.creators:
        initials = (f'"initials": {encode_basestring(agent.initials)},\n      '
                    if agent.initials else "")
        organization = "true" if agent.organization else "false"
        creators.append(f'{{\n      "surname": {encode_basestring(agent.surname)},\n      '
                        f'{initials}"organization": {organization}\n    }}')
    members = [f'"creators": {_json_block(creators, "  ")}',
               f'"date": {encode_basestring(record.date)}']
    if record.acronym:
        members.append(f'"acronym": {encode_basestring(record.acronym)}')
    members.append(f'"full_name": {encode_basestring(record.full_name)}')
    if record.version:
        members.append(f'"version": {encode_basestring(record.version)}')
    if record.revision:
        members.append(f'"revision": {encode_basestring(record.revision)}')
    members.append(f'"uri": {encode_basestring(record.uri.value)}')
    formats = [encode_basestring(label) for label in record.formats]
    members.append(f'"formats": {_json_block(formats, "  ")}')
    return _json_block(members, "", "{}") + "\n"


_JSON_TYPES = {str: "a string", bool: "a boolean", list: "an array"}


def _json_field(data: dict, key: str, kind: type, required: bool = False):
    """``data[key]`` checked to be a ``kind``; None for an absent or null
    optional key."""
    value = data.get(key)
    if value is None and not required:
        return None
    if not isinstance(value, kind):
        problem = f"must be {_JSON_TYPES[kind]}" if key in data else "is missing"
        raise CitationJsonError(f"citation JSON {key!r} {problem}")
    return value


def record_from_json(text: str) -> CitationRecord:
    """Inverse of :func:`render_json`.

    Malformed JSON, a non-object, a missing key, an empty creator list, a
    wrongly typed field or a date not shaped ``YYYY-MM-DD`` raise
    :class:`CitationJsonError`; a bad URI raises :class:`RdfModelError`.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CitationJsonError(f"citation JSON is malformed: {exc}") from None
    if not isinstance(data, dict):
        raise CitationJsonError("citation JSON must be an object")
    entries = _json_field(data, "creators", list, required=True)
    if not entries or not all(isinstance(entry, dict) for entry in entries):
        raise CitationJsonError("citation JSON 'creators' must be a non-empty array of objects")
    formats = _json_field(data, "formats", list) or []
    if not all(isinstance(label, str) for label in formats):
        raise CitationJsonError("citation JSON 'formats' must hold only strings")
    date = _json_field(data, "date", str, required=True)
    if not re.fullmatch(DATE_SHAPE, date):
        raise CitationJsonError(f"citation JSON 'date' must be YYYY-MM-DD: {date!r}")
    creators = tuple(
        Agent(
            surname=_json_field(entry, "surname", str, required=True),
            initials=_json_field(entry, "initials", str),
            organization=_json_field(entry, "organization", bool) or False,
        )
        for entry in entries
    )
    return CitationRecord(
        creators=creators,
        date=date,
        full_name=_json_field(data, "full_name", str, required=True),
        uri=Iri(_json_field(data, "uri", str, required=True)),
        acronym=_json_field(data, "acronym", str),
        version=_json_field(data, "version", str),
        revision=_json_field(data, "revision", str),
        formats=tuple(formats),
    )


# --- parsing -----------------------------------------------------------------


def _parse_creator_cells(cells: list[str]) -> list[Agent]:
    agents: list[Agent] = []
    i = 0
    while i < len(cells):
        cell = cells[i]
        if not cell:
            raise CitationParseError(0, "creators", "empty creator name")
        if i + 1 < len(cells) and is_initials(cells[i + 1]):
            agents.append(Agent(surname=cell, initials=cells[i + 1]))
            i += 2
        elif " " in cell:
            agents.append(Agent(surname=cell, organization=True))
            i += 1
        else:
            agents.append(Agent(surname=cell))
            i += 1
    return agents


def _parse_creators(section: str) -> tuple[Agent, ...]:
    if not section:
        raise CitationParseError(0, "creators", "no creators before the date")
    if _DATE_SHAPE_ANYWHERE_RE.search(section):
        # a date element inside a creator name would shift the split point
        # on re-parse; no real name looks like this
        raise CitationParseError(
            0, "creators", "creator names may not contain a date element"
        )
    head, sep, tail = section.rpartition(" and ")
    groups = [head, tail] if sep else [section]
    agents: list[Agent] = []
    for group in groups:
        agents.extend(_parse_creator_cells(group.split(", ")))
    return tuple(agents)


def parse_canonical(text: str) -> CitationRecord:
    """Parse a canonical citation string back into a record.

    Tolerated variants normalize away: a comma between version and URI,
    an angle-bracketed URI, and arbitrary surrounding whitespace.
    Raises :class:`CitationParseError` naming the failing element.
    """
    s = " ".join(text.split())
    m = _DATE_GROUP_RE.search(s)
    if not m:
        raise CitationParseError(0, "date", "no '(YYYY-MM-DD).' element found")
    creators = _parse_creators(s[: m.start()].rstrip())
    date = m.group(1)

    rest_start = m.end() + 1 if m.end() < len(s) else m.end()
    rest = s[rest_start:]
    if not rest:
        raise CitationParseError(m.end(), "title", "nothing follows the date")

    formats: tuple[str, ...] = ()
    if rest.endswith("]"):
        bracket = rest.rfind(" [")
        if bracket >= 0:
            labels = [t.strip() for t in rest[bracket + 2 : -1].split(",")]
            seen: list[str] = []
            for label in labels:
                if label and label not in seen:
                    seen.append(label)
            formats = tuple(seen)
            rest = rest[:bracket].rstrip()

    space = rest.rfind(" ")
    uri_token = rest[space + 1 :]
    before = rest[:space + 1].rstrip() if space >= 0 else ""
    if uri_token.startswith("<") and uri_token.endswith(">") and len(uri_token) > 2:
        uri_token = uri_token[1:-1]
    uri_position = rest_start + (space + 1 if space >= 0 else 0)
    try:
        s.encode()
    except UnicodeEncodeError as exc:  # a lone surrogate, which no text holds
        at = exc.start  # named by code point, as validate prints the message
        element = ("creators" if at < m.start() else "title" if at < uri_position
                   else "source" if at < rest_start + len(rest) else "formats")
        raise CitationParseError(at, element, f"lone surrogate U+{ord(s[at]):04X}") from None
    try:
        uri = Iri(uri_token)
    except RdfModelError as exc:
        raise CitationParseError(uri_position, "source", str(exc)) from None

    if not before:
        raise CitationParseError(m.end(), "title", "no title between date and URI")
    if before[-1] not in ".,":
        raise CitationParseError(
            uri_position, "source", "expected '.' or ',' before the URI"
        )
    body = before[:-1].rstrip()
    if not body:
        raise CitationParseError(m.end(), "title", "empty title")

    version: str | None = None
    revision: str | None = None
    left, sep, tail = body.rpartition(". ")
    if sep and tail:
        vm = _VERSION_TOKEN_RE.fullmatch(tail)
        if vm and re.search("[0-9]", vm.group(1)):
            version, revision = vm.group(1), vm.group(2)
            body = left

    acronym: str | None = None
    full_name = body
    head, colon, remainder = body.partition(": ")
    if colon and is_acronym(head):
        acronym, full_name = head, remainder

    return CitationRecord(
        creators=creators,
        date=date,
        full_name=full_name,
        uri=uri,
        acronym=acronym,
        version=version,
        revision=revision,
        formats=formats,
    )
