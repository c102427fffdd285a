"""The citation record: assembly, rendering, and round-trip parsing, with
the grammar's shared terminals and predicates and the creator value
:class:`Agent`, which the extractor and the validator import from here.

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

import functools
import json
import re
from json.encoder import encode_basestring
from collections.abc import Sequence

from .exceptions import (CitationJsonError, CitationParseError, CitationRecordError,
                         MissingFieldError, RdfModelError)
from .model import _IRI_TABLE, Iri, Value

# --- the grammar's terminals and creators (docs/grammar.abnf) ----------------

#: The one date shape, ``YYYY-MM-DD`` in ASCII digits. The canonical
#: grammar and the JSON reader check only this shape; the calendar is
#: checked by :func:`is_calendar_date`.
DATE_SHAPE = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
#: A character of a version or revision: ``ver-char`` of docs/grammar.abnf,
#: printable ASCII other than "(" and ")".
VER_CHAR = r"[\x21-\x27\x2A-\x7E]"
# DATE_SHAPE with months 01-12 and days 01-31
_DATE_RE = re.compile("[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])")
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# chunks of one character and ".", joined by single spaces; is_initials
# tests the characters
_INITIALS_SHAPE_RE = re.compile(r"(?s).\.(?: .\.)*")


class Agent(Value):
    """One creator: a person (surname plus optional initials) or an
    organization (``surname`` holds the full group name).
    """

    __slots__ = _fields = ("surname", "initials", "organization")

    def __init__(self, surname: str, initials: str | None = None,
                 organization: bool = False):
        object.__setattr__(self, "surname", surname)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "organization", organization)


def is_calendar_date(value: str) -> bool:
    """True for a ``YYYY-MM-DD`` string that names a real calendar day."""
    if not _DATE_RE.fullmatch(value) or value.startswith("0000"):
        return False
    if value[8:] <= "28":
        return True
    year, month = int(value[:4]), int(value[5:7])
    leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return int(value[8:]) <= _MONTH_DAYS[month - 1] + leap


def is_initials(text: str) -> bool:
    """True for initials in ``I.`` form: one or more chunks joined by
    single spaces, each a letter that upper-casing leaves unchanged (an
    upper-case or caseless letter of any script) followed by ``.``. The
    shape is a regex; no character class can state the letters' test."""
    if _INITIALS_SHAPE_RE.fullmatch(text) is None:
        return False
    letters = text[::3]
    return letters.isalpha() and letters.upper() == letters


def is_acronym(text: str) -> bool:
    """True for the grammar's ``acronym``: 1 to 10 characters, no ``:``
    (the acronym/name separator), and no whitespace at either end."""
    return 0 < len(text) <= 10 and ":" not in text and text == text.strip()


# --- the record --------------------------------------------------------------


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
    try:
        return ", ".join(rendered[:-1]) + " and " + rendered[-1]
    except IndexError:
        raise CitationRecordError("creators", "is empty") from None


def _title_text(record: CitationRecord) -> str:
    if record.acronym:
        return f"{record.acronym}: {record.full_name}"
    return record.full_name


def _version_text(record: CitationRecord) -> str:
    if record.revision:
        return f"{record.version}({record.revision})"
    return record.version or ""


def render_canonical(record: CitationRecord) -> str:
    """The canonical plain-text reference for a record; a record with no
    creators raises :class:`CitationRecordError`."""
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
    double-braced so reference managers do not split them. A date that
    does not split into three ``-``-separated parts raises
    :class:`CitationRecordError`."""
    key = (record.acronym or _slug(record.full_name)) + record.date[:4]
    try:
        year, month, day = record.date.split("-")
    except ValueError:
        raise CitationRecordError("date", f"is not shaped YYYY-MM-DD: {record.date!r}") from None
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
_DATE_SHAPE_RE = re.compile(DATE_SHAPE)
_DATE_ELEMENT_RE = re.compile(rf"\({DATE_SHAPE}\)\.")


def _json_type_error(data: dict, key: str, kind: type) -> CitationJsonError:
    """The error for ``data[key]``, which is not a ``kind``."""
    problem = f"must be {_JSON_TYPES[kind]}" if key in data else "is missing"
    return CitationJsonError(f"citation JSON {key!r} {problem}")


def record_from_json(text: str) -> CitationRecord:
    """Inverse of :func:`render_json`.

    Malformed JSON, a non-object, a missing key, an empty creator list, a
    wrongly typed field or a date not shaped ``YYYY-MM-DD`` raise
    :class:`CitationJsonError`; a bad URI raises :class:`RdfModelError`.
    The checks run in that order, and a field's type is tested once; an
    optional field may be null or absent.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CitationJsonError(f"citation JSON is malformed: {exc}") from None
    if not isinstance(data, dict):
        raise CitationJsonError("citation JSON must be an object")
    entries, formats, date = data.get("creators"), data.get("formats"), data.get("date")
    if not isinstance(entries, list):
        raise _json_type_error(data, "creators", list)
    if not entries or not all(isinstance(entry, dict) for entry in entries):
        raise CitationJsonError("citation JSON 'creators' must be a non-empty array of objects")
    if formats is None:
        formats = ()
    elif not isinstance(formats, list):
        raise _json_type_error(data, "formats", list)
    elif not all(isinstance(label, str) for label in formats):
        raise CitationJsonError("citation JSON 'formats' must hold only strings")
    if not isinstance(date, str):
        raise _json_type_error(data, "date", str)
    if _DATE_SHAPE_RE.fullmatch(date) is None:
        raise CitationJsonError(f"citation JSON 'date' must be YYYY-MM-DD: {date!r}")
    creators = []
    for entry in entries:
        surname, initials, organization = (entry.get("surname"), entry.get("initials"),
                                           entry.get("organization"))
        if not isinstance(surname, str):
            raise _json_type_error(entry, "surname", str)
        if not (initials is None or isinstance(initials, str)):
            raise _json_type_error(entry, "initials", str)
        if not (organization is None or isinstance(organization, bool)):
            raise _json_type_error(entry, "organization", bool)
        creators.append(Agent(surname, initials, organization or False))
    full_name, uri = data.get("full_name"), data.get("uri")
    if not isinstance(full_name, str):
        raise _json_type_error(data, "full_name", str)
    if not isinstance(uri, str):
        raise _json_type_error(data, "uri", str)
    uri = _IRI_TABLE(uri)
    optional = data.get("acronym"), data.get("version"), data.get("revision")
    for key, value in zip(("acronym", "version", "revision"), optional):
        if not (value is None or isinstance(value, str)):
            raise _json_type_error(data, key, str)
    return CitationRecord(creators, date, full_name, uri, *optional, formats)


# --- parsing -----------------------------------------------------------------

# A citation whose whitespace runs are single spaces, as its parts in order.
# The parts after the date are optional, so that the one match also locates
# a malformed string's defect. Groups: 1 creators, with the space before the
# date; 2 date; 3 formats; 4 version; 5 revision; 6 the text before the URI
# token when it does not end in "." or ","; 7 URI token; 8 its "<"; 9 URI.
# The title has no group: it runs from the date to the version's ". ", or
# else to the "." or "," before the URI token.
_CITATION_PARTS = (
    # the creators run to the first date element, one followed by a space or the end
    rf"([^(]*+(?:\((?!{DATE_SHAPE}\)\.(?: |$))[^(]*+)*+)\(({DATE_SHAPE})\)\.(?= |$)",
    # one space and the rest, whose formats follow its last " [" (greedy)
    # when it ends in "]"
    r"(?: (?=(?:(?=.*+(?<=\])).* \[(.*)\]$)?)",
    # the title part: the version (holding a digit) is the ". "-segment that
    # ends at the "." or "," before the URI token; (?!...) skips that token fast
    rf"(?:.*\. (?![^ ]*+(?: \[|$))((?={VER_CHAR}*?[0-9]){VER_CHAR}+)(?:\(({VER_CHAR}+)\))? ?[.,] "
    r"|.* (?<=[.,] )|(.*) |)",
    # the URI token, the last before the formats, in angle brackets or not
    r"((<)?([^ ]+)(?(8)>))(?(3) \[\3\])$)?",
)


@functools.cache
def _citation():
    """The match method of the citation regex, compiled on first use."""
    return re.compile("".join(_CITATION_PARTS)).match


def _parse_creators(section: str) -> tuple[Agent, ...]:
    """The creators before the date: cells split at the last " and " and at
    each ", "; a cell followed by initials is a person, else a multi-word
    cell is an organization and a one-word cell a mononym."""
    if not section:
        raise CitationParseError(0, "creators", "no creators before the date")
    if "(" in section and _DATE_ELEMENT_RE.search(section):
        # a date element inside a creator name would shift the split point
        # on re-parse; no real name looks like this
        raise CitationParseError(0, "creators", "creator names may not contain a date element")
    head, sep, tail = section.rpartition(" and ")
    agents: list[Agent] = []
    for group in (head, tail) if sep else (tail,):
        cells = group.split(", ")
        if "" in cells:
            raise CitationParseError(0, "creators", "empty creator name")
        cells.append("")  # what follows the last cell: no initials
        i, last = 0, len(cells) - 1
        while i < last:
            cell, following = cells[i], cells[i + 1]
            if is_initials(following):
                agents.append(Agent(cell, following))
                i += 2
            else:
                agents.append(Agent(cell, None, " " in cell))
                i += 1
    return tuple(agents)


@functools.lru_cache(maxsize=256)
def parse_canonical(text: str) -> CitationRecord:
    """Parse a canonical citation string back into a record.

    Tolerated variants normalize away: a comma between version and URI,
    an angle-bracketed URI, and arbitrary surrounding whitespace.
    Raises :class:`CitationParseError` naming the failing element; of
    several defects, one in the date, the creators, a lone surrogate, the
    URI and the title is reported, in that order.

    A string among the last 256 that parsed returns its shared, immutable
    record again without a parse; a failure is never kept. An argument
    that is not a string raises AttributeError, or TypeError if unhashable.
    """
    s = " ".join(text.split())
    m = _citation()(s)
    if m is None:
        raise CitationParseError(0, "date", "no '(YYYY-MM-DD).' element found")
    section, date, labels, version, revision, before, token, _, uri = m.groups()
    creators = _parse_creators(section.rstrip())
    date_end = m.end(2) + 2
    if token is None:
        raise CitationParseError(date_end, "title", "nothing follows the date")
    token_start = m.start(7)
    try:
        s.encode()
    except UnicodeEncodeError as exc:  # a lone surrogate, which no text holds
        at = exc.start  # named by code point, as validate prints the message
        element = ("creators" if at < m.start(2) - 1 else "title" if at < token_start
                   else "source" if at < m.end(7) else "formats")
        raise CitationParseError(at, element, f"lone surrogate U+{ord(s[at]):04X}") from None
    try:
        iri = _IRI_TABLE(uri)
    except RdfModelError as exc:
        raise CitationParseError(token_start, "source", str(exc)) from None
    if token_start == date_end + 1:
        raise CitationParseError(date_end, "title", "no title between date and URI")
    if before is not None:
        raise CitationParseError(token_start, "source", "expected '.' or ',' before the URI")
    if version is None:
        title = s[date_end + 1:token_start - 2].rstrip()
        if not title:
            raise CitationParseError(date_end, "title", "empty title")
    else:
        title = s[date_end + 1:m.start(4) - 2]
    head, colon, name = title.partition(": ")
    acronym, full_name = (head, name) if colon and is_acronym(head) else (None, title)
    labels = () if labels is None else labels.split(",")
    formats = tuple(dict.fromkeys(filter(None, map(str.strip, labels))))
    return CitationRecord(creators, date, full_name, iri, acronym, version, revision, formats)
