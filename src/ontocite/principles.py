"""Validate citation records and citation strings, emitting coded diagnostics.

The twelve record-level codes are a frozen public vocabulary. A record
passes (empty diagnostic list) exactly when it is complete: creators,
date, title, and URI present, a real calendar date in YYYY-MM-DD form, an
absolute URI, known format labels, a version, person names in
"Surname, I." form, and an acronym that ``citation.is_acronym`` accepts.

``E-PARSE`` sits outside the record vocabulary: it reports a citation
string that does not match the grammar at all.
"""

from __future__ import annotations

from collections.abc import Mapping

from .citation import (Agent, CitationRecord, is_acronym, is_calendar_date, is_initials,
                        parse_canonical)
from .exceptions import CitationParseError, CitationRecordError
from .model import Iri, Value, is_absolute_iri
from .vocab import KNOWN_FORMAT_LABELS

E_CREATOR_MISSING = "E-CREATOR-MISSING"
E_DATE_MISSING = "E-DATE-MISSING"
E_DATE_FORMAT = "E-DATE-FORMAT"
E_TITLE_MISSING = "E-TITLE-MISSING"
E_URI_MISSING = "E-URI-MISSING"
E_URI_RELATIVE = "E-URI-RELATIVE"
E_URI_ONLY = "E-URI-ONLY"
W_VERSION_MISSING = "W-VERSION-MISSING"
W_FORMAT_MISSING = "W-FORMAT-MISSING"
W_FORMAT_UNKNOWN = "W-FORMAT-UNKNOWN"
W_ACRONYM_COLON = "W-ACRONYM-COLON"
W_NAME_FORM = "W-NAME-FORM"
E_PARSE = "E-PARSE"

#: The frozen record-validation vocabulary (E-PARSE is string-level only).
DIAGNOSTIC_CODES = (
    E_CREATOR_MISSING,
    E_DATE_MISSING,
    E_DATE_FORMAT,
    E_TITLE_MISSING,
    E_URI_MISSING,
    E_URI_RELATIVE,
    E_URI_ONLY,
    W_VERSION_MISSING,
    W_FORMAT_MISSING,
    W_FORMAT_UNKNOWN,
    W_ACRONYM_COLON,
    W_NAME_FORM,
)

class Diagnostic(Value):
    """One validation finding; ``severity`` is "error" or "warning"."""

    __slots__ = _fields = ("code", "severity", "message", "field")

    def __init__(self, code: str, severity: str, message: str, field: str | None = None):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "field", field)


def _error(code: str, message: str, field: str | None = None) -> Diagnostic:
    return Diagnostic(code, "error", message, field)


def _warning(code: str, message: str, field: str | None = None) -> Diagnostic:
    return Diagnostic(code, "warning", message, field)


_URI_ONLY = _error(
    E_URI_ONLY,
    "citation is a mere link: a URI reveals neither creators, title, date, nor version",
    "uri",
)


_TEXT = (str, type(None))
_SEQUENCE = (list, tuple, type(None))
#: The types that a mapping's field may have.
_FIELD_TYPES = {"date": _TEXT, "full_name": _TEXT, "acronym": _TEXT, "version": _TEXT,
                "revision": _TEXT, "uri": (Iri, str, type(None)), "creators": _SEQUENCE,
                "formats": _SEQUENCE}


def _as_fields(record: CitationRecord | Mapping) -> dict[str, object]:
    """The fields of ``record``; a mapping's field of the wrong type raises
    :class:`CitationRecordError`."""
    if isinstance(record, CitationRecord):
        return {name: getattr(record, name) for name in record._fields}
    fields = dict(record)
    for name, types in _FIELD_TYPES.items():
        value = fields.get(name)
        if not isinstance(value, types):
            raise CitationRecordError(name, f"is of type {type(value).__name__}: {value!r}")
    for index, label in enumerate(fields.get("formats") or ()):
        if not isinstance(label, str):
            raise CitationRecordError(f"formats[{index}]",
                                      f"is of type {type(label).__name__}: {label!r}")
    return fields


def _name_form_problem(creator: Agent) -> str | None:
    """A description of the defect, or None when the name form is fine."""
    if creator.organization:
        return None
    if not creator.surname:
        return "person has an empty surname"
    if creator.initials is not None:
        if not is_initials(creator.initials):
            return f"initials {creator.initials!r} are not in 'I.' form"
        return None
    if " " in creator.surname or "," in creator.surname:
        # the grammar reads a person without initials like this as an organization
        return f"{creator.surname!r} is not in 'Surname, I.' form"
    return None


def validate_record(record: CitationRecord | Mapping) -> list[Diagnostic]:
    """Check a record, or a mapping of some of its fields as
    ``citation.draft_fields`` returns it, against the citation completeness
    and form rules; findings come back sorted by code. A mapping's text
    fields are strings or None, its ``creators`` a list or tuple of
    ``Agent``s and its ``formats`` one of strings; any other value raises
    :class:`CitationRecordError`. Its ``uri`` may be a string, the one way
    to report a relative URI."""
    f = _as_fields(record)
    out: list[Diagnostic] = []

    creators = f.get("creators") or ()
    date = f.get("date")
    title = f.get("full_name")
    uri = f.get("uri")
    acronym = f.get("acronym")
    version = f.get("version")
    formats = f.get("formats")

    if not creators:
        out.append(_error(E_CREATOR_MISSING, "no creators given", "creators"))
    if not date:
        out.append(_error(E_DATE_MISSING, "no publication date given", "date"))
    elif not is_calendar_date(date):
        out.append(_error(
            E_DATE_FORMAT, f"date {date!r} is not a valid YYYY-MM-DD date", "date"
        ))
    if not title:
        out.append(_error(E_TITLE_MISSING, "no ontology name given", "full_name"))

    uri_value = uri.value if isinstance(uri, Iri) else (uri or "")
    if not uri_value:
        out.append(_error(E_URI_MISSING, "no URI given", "uri"))
    elif not is_absolute_iri(uri_value):
        out.append(_error(
            E_URI_RELATIVE, f"URI {uri_value!r} is not absolute", "uri"
        ))
    if uri_value and not creators and not date and not title:
        out.append(_URI_ONLY)

    if not version:
        out.append(_warning(W_VERSION_MISSING, "no version given", "version"))
    if not formats:
        out.append(_warning(W_FORMAT_MISSING, "no file format labels given", "formats"))
    else:
        for label in formats:
            if label not in KNOWN_FORMAT_LABELS:
                out.append(_warning(
                    W_FORMAT_UNKNOWN, f"unknown format label {label!r}", "formats"
                ))
    if acronym and not is_acronym(acronym):
        out.append(_warning(
            W_ACRONYM_COLON,
            f"acronym {acronym!r} is not 1 to 10 characters without ':' "
            "and without whitespace at either end",
            "acronym",
        ))
    for index, creator in enumerate(creators):
        try:
            problem = _name_form_problem(creator)
        except AttributeError:
            raise CitationRecordError(f"creators[{index}]",
                                      f"is not an Agent: {creator!r}") from None
        if problem:
            out.append(_warning(W_NAME_FORM, problem, f"creators[{index}]"))

    out.sort(key=lambda d: (d.code, d.field or "", d.message))
    return out


def _bare_iri(text: str) -> str | None:
    candidate = text.strip()
    if candidate.startswith("<") and candidate.endswith(">") and len(candidate) > 2:
        candidate = candidate[1:-1]
    if not candidate or any(ch.isspace() for ch in candidate):
        return None
    return candidate if is_absolute_iri(candidate) else None


def validate_citation_string(text: str) -> list[Diagnostic]:
    """Validate a citation given as a string.

    Parseable strings are validated as records; a bare absolute IRI is
    the mere-link anti-pattern and yields exactly ``E-URI-ONLY``; anything
    else yields a single ``E-PARSE`` diagnostic.
    """
    try:
        record = parse_canonical(text)
    except CitationParseError as exc:
        if _bare_iri(text):
            return [_URI_ONLY]
        return [_error(E_PARSE, f"citation string does not parse: {exc}")]
    return validate_record(record)
