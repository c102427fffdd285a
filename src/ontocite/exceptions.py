"""Exception types shared across the toolkit."""

from __future__ import annotations


class OntociteError(Exception):
    """Base class for every error raised by this package."""


class OntociteWarning(UserWarning):
    """An ambiguous input was read one way of several; the message says how."""


class RdfModelError(OntociteError, ValueError):
    """A term, triple, or graph was constructed with invalid structure."""


class ParseError(OntociteError):
    """Syntax error while reading an ontology file.

    ``line`` and ``column`` are 1-based positions into the input text.
    """

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class UnknownFormatError(OntociteError):
    """No detection rule matched the file name or content."""


class NoOntologyNodeError(OntociteError):
    """The graph contains no IRI subject typed as an ontology."""


class NotOntologyNodeError(OntociteError):
    """The targeted IRI is not typed as an ontology in the graph."""


class UnresolvableAgentError(OntociteError):
    """A creator node carries no usable name property; the message names
    ``node`` by its N-Triples token."""

    def __init__(self, node):
        from .model import nt  # model imports this module

        self.node = node
        super().__init__(f"no name property found on agent node {nt(node)}")


class EmptyNameError(OntociteError, ValueError):
    """A person or group name was blank after trimming."""


class EmptyReferenceError(OntociteError, ValueError):
    """A publication reference text was blank after trimming."""


class MissingFieldError(OntociteError):
    """A mandatory citation field is absent from the extracted metadata."""

    def __init__(self, field: str):
        self.field = field
        super().__init__(f"missing mandatory citation field: {field}")


class CitationParseError(OntociteError):
    """A citation string does not match the reference grammar.

    ``position`` is a 0-based index into the whitespace-normalized input;
    ``expected`` names the grammar element that failed
    (``creators``, ``date``, ``title``, ``source``, or ``formats``).
    """

    def __init__(self, position: int, expected: str, message: str):
        self.position = position
        self.expected = expected
        self.message = message
        super().__init__(f"at offset {position}: expected {expected}: {message}")


class CitationJsonError(OntociteError, ValueError):
    """Citation JSON does not hold a well-formed citation record."""


class CitationRecordError(OntociteError, ValueError):
    """A field of a citation record or an ``Agent`` is not of its type (when
    either is built, or in a mapping given to ``validate_record``), or a
    renderer cannot render it; ``field`` names it, ``reason`` says why."""

    def __init__(self, field: str, message: str):
        self.field, self.reason = field, message
        super().__init__(f"citation record {field!r} {message}")


class DuplicateOntologyError(OntociteError):
    """The same ontology IRI appeared twice in a corpus."""
