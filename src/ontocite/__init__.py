"""ontocite: extract, render, parse, validate, and link ontology citations.

The toolkit reads ontology headers (Turtle / N-Triples), builds citation
records following a uniform reference template, validates them against a
set of citation completeness principles, maintains mutual links between
ontologies and the publications describing them, and computes citation
and import networks over ontology collections.
"""

from .citation import (
    CitationRecord,
    build_record,
    draft_fields,
    parse_canonical,
    record_from_json,
    record_to_dict,
    render_bibtex,
    render_canonical,
    render_json,
)
from .exceptions import (
    CitationJsonError,
    CitationParseError,
    DuplicateOntologyError,
    EmptyNameError,
    EmptyReferenceError,
    MissingFieldError,
    NoOntologyNodeError,
    NotOntologyNodeError,
    OntociteError,
    OntociteWarning,
    ParseError,
    RdfModelError,
    UnknownFormatError,
    UnresolvableAgentError,
)
from .extract import (
    Agent,
    OntologyMetadata,
    derive_acronym,
    extract_metadata,
    find_ontology_iri,
    normalize_person_name,
    resolve_agent_name,
)
from .model import BlankNode, Graph, Iri, Literal, Term, Triple
from .mutual import (
    MatchResult,
    check_publication_side,
    inject_reference,
    list_references,
)
from .network import (
    CitationGraph,
    Edge,
    build_network,
    export_dot,
    render_counts_report,
    usage_counts,
)
from .principles import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    validate_citation_string,
    validate_record,
)
from .rdfio import (
    detect_format_label,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)
from .vocab import KNOWN_FORMAT_LABELS

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "BlankNode",
    "CitationGraph",
    "CitationJsonError",
    "CitationParseError",
    "CitationRecord",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "DuplicateOntologyError",
    "Edge",
    "EmptyNameError",
    "EmptyReferenceError",
    "Graph",
    "Iri",
    "KNOWN_FORMAT_LABELS",
    "Literal",
    "MatchResult",
    "MissingFieldError",
    "NoOntologyNodeError",
    "NotOntologyNodeError",
    "OntologyMetadata",
    "OntociteError",
    "OntociteWarning",
    "ParseError",
    "RdfModelError",
    "Term",
    "Triple",
    "UnknownFormatError",
    "UnresolvableAgentError",
    "build_network",
    "build_record",
    "check_publication_side",
    "derive_acronym",
    "detect_format_label",
    "draft_fields",
    "export_dot",
    "extract_metadata",
    "find_ontology_iri",
    "inject_reference",
    "list_references",
    "normalize_person_name",
    "parse_canonical",
    "parse_ntriples",
    "parse_turtle",
    "record_from_json",
    "record_to_dict",
    "render_bibtex",
    "render_canonical",
    "render_counts_report",
    "render_json",
    "resolve_agent_name",
    "serialize_ntriples",
    "usage_counts",
    "validate_citation_string",
    "validate_record",
]
