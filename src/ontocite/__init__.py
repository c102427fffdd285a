"""ontocite: extract, render, parse, validate, and link ontology citations.

The toolkit reads ontology headers (Turtle / N-Triples), builds citation
records following a uniform reference template, validates them against a
set of citation completeness principles, maintains mutual links between
ontologies and the publications describing them, and computes citation
and import networks over ontology collections.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it. A name is imported on its
# first access (PEP 562), so ``import ontocite`` loads no submodule and a
# command loads only the modules it runs.
_EXPORTS = {
    **dict.fromkeys(("Agent", "CitationRecord", "build_record", "draft_fields",
                     "parse_canonical", "record_from_json", "record_to_dict", "render_bibtex",
                     "render_canonical", "render_json"), "citation"),
    **dict.fromkeys(("CitationJsonError", "CitationParseError", "CitationRecordError",
                     "DuplicateOntologyError", "EmptyNameError", "EmptyReferenceError",
                     "MissingFieldError", "NoOntologyNodeError", "NotOntologyNodeError",
                     "OntociteError", "OntociteWarning", "ParseError", "RdfModelError",
                     "UnknownFormatError", "UnresolvableAgentError"), "exceptions"),
    **dict.fromkeys(("OntologyMetadata", "derive_acronym", "extract_metadata",
                     "find_ontology_iri", "normalize_person_name", "resolve_agent_name"),
                    "extract"),
    **dict.fromkeys(("BlankNode", "Graph", "Iri", "Literal", "Term", "Triple"), "model"),
    **dict.fromkeys(("DEFAULT_SIMILARITY_THRESHOLD", "MatchResult", "check_publication_side",
                     "inject_reference", "list_references"), "mutual"),
    **dict.fromkeys(("CitationGraph", "Edge", "build_network", "export_dot",
                     "render_counts_report", "usage_counts"), "network"),
    **dict.fromkeys(("DIAGNOSTIC_CODES", "Diagnostic", "validate_citation_string",
                     "validate_record"), "principles"),
    **dict.fromkeys(("detect_format_label", "parse_ntriples", "parse_turtle",
                     "serialize_ntriples"), "rdfio"),
    "KNOWN_FORMAT_LABELS": "vocab",
}

__all__ = sorted(_EXPORTS)
_MODULES = set(_EXPORTS.values())


def _load(name: str, scope: dict):
    """The export ``name``, read from the module that defines it and kept
    in ``scope``, the globals of the module whose ``__getattr__`` asks; a
    name bound there is never rebound."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {scope['__name__']!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime reports
    source = __import__(f"{__name__}.{module}", fromlist=["*"])
    return scope.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    """An export, or a submodule that defines exports, on first access."""
    if name in _MODULES:
        return __import__(f"{__name__}.{name}", fromlist=["*"])
    return _load(name, globals())


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
