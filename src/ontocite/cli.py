"""Command-line interface.

Subcommands: cite, parse, validate, inject, check-mutual, network.
Standard output is plain, machine-processable text and byte-deterministic
for fixed inputs; warnings go to standard error as ``warning:`` lines,
before any ``error:`` line. Exit status: 0 success, 1 validation failure
or mutual-citation not satisfied, 2 usage, parse, or I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import warnings
from typing import List, Optional, Tuple

from .citation import (
    build_record,
    draft_fields,
    parse_canonical,
    render_bibtex,
    render_canonical,
    render_json,
)
from .exceptions import OntociteError, OntociteWarning
from .extract import derive_acronym, extract_metadata, find_ontology_iri
from .model import Graph, Iri
from .mutual import (
    DEFAULT_SIMILARITY_THRESHOLD,
    check_publication_side,
    inject_reference,
    list_references,
)
from .network import build_network, export_dot, render_counts_report
from .principles import validate_citation_string, validate_record
from .rdfio import detect_format_label, parse_ntriples, parse_turtle, serialize_ntriples
from .vocab import EXTENSION_LABELS, KNOWN_FORMAT_LABELS

_PARSEABLE = {"turtle", "n-triples"}


def _shown(path: str) -> str:
    """``path`` as an error line echoes it: each C0 control character and
    DEL as ``\\xNN``, every other character as given."""
    return re.sub(r"[\x00-\x1f\x7f]", lambda m: f"\\x{ord(m.group()):02x}", path)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise OntociteError(f"cannot read {_shown(path)}: {exc}") from None


def _decode(path: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OntociteError(f"{_shown(path)} is not valid UTF-8: {exc}") from None


def _load_graph(path: str) -> Tuple[Graph, str]:
    """Read a file once, detect its format from the first 2,048 bytes, and
    parse it; returns (graph, format label)."""
    data = _read_bytes(path)
    label = detect_format_label(os.path.basename(path), data[:2048].decode("utf-8", "replace"))
    if label not in _PARSEABLE:
        raise OntociteError(
            f"{_shown(path)}: {label} input is not parsed natively; "
            "convert to Turtle or N-Triples first"
        )
    text = _decode(path, data)
    del data  # not needed while parsing
    try:
        if label == "turtle":
            return parse_turtle(text), label
        return parse_ntriples(text), label
    except OntociteError as exc:
        raise OntociteError(f"{_shown(path)}: {exc}") from None


def _looks_like_file(argument: str) -> bool:
    """File-vs-citation-string disambiguation for `parse` and `validate`:
    existing paths are files; whitespace or an IRI scheme marks a string;
    otherwise an RDF extension suggests an (unreadable) file path."""
    if os.path.exists(argument):
        return True
    if any(ch.isspace() for ch in argument):
        return False
    if re.match(r"[A-Za-z][A-Za-z0-9+.\-]*://", argument):
        return False
    return argument.lower().endswith(tuple(EXTENSION_LABELS))


def _cmd_cite(args: argparse.Namespace) -> int:
    graph, label = _load_graph(args.path)
    meta = extract_metadata(graph, fmt=args.format_label or label)
    record = build_record(meta, derive_acronym(meta))
    if args.style == "canonical":
        print(render_canonical(record))
    elif args.style == "bibtex":
        sys.stdout.write(render_bibtex(record))
    else:
        sys.stdout.write(render_json(record))
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    if _looks_like_file(args.input):
        graph, _ = _load_graph(args.input)
        sys.stdout.write(serialize_ntriples(graph))
        return 0
    record = parse_canonical(args.input)
    sys.stdout.write(render_json(record))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if _looks_like_file(args.input):
        graph, label = _load_graph(args.input)
        meta = extract_metadata(graph, fmt=label)
        split = derive_acronym(meta) if meta.title else None
        diagnostics = validate_record(draft_fields(meta, split))
    else:
        diagnostics = validate_citation_string(args.input)
    for diagnostic in diagnostics:
        print(f"{diagnostic.code}\t{diagnostic.severity}\t{diagnostic.message}")
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _cmd_inject(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args.path)
    injected = inject_reference(graph, find_ontology_iri(graph), args.reference, args.lang)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(serialize_ntriples(injected))
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise OntociteError(f"cannot write {_shown(args.out)}: {exc}") from None
    return 0


def _cmd_check_mutual(args: argparse.Namespace) -> int:
    graph, label = _load_graph(args.onto_path)
    meta = extract_metadata(graph, fmt=label)
    record = build_record(meta, derive_acronym(meta))
    refs = list_references(graph, meta.ontology_iri, include_legacy=True)
    reflist = _decode(args.reflist_path, _read_bytes(args.reflist_path))
    result = check_publication_side(reflist, record, threshold=args.threshold)
    ontology_side = bool(refs)
    print(f"ontology-side\t{'true' if ontology_side else 'false'}")
    line = f"publication-side\t{'true' if result.found else 'false'}"
    line += f"\tsimilarity={result.similarity:.3f}"
    print(line)
    return 0 if ontology_side and result.found else 1


def _cmd_network(args: argparse.Namespace) -> int:
    corpus: List[Tuple[Graph, Iri]] = []
    for path in args.paths:
        graph, _ = _load_graph(path)
        corpus.append((graph, find_ontology_iri(graph)))
    unparsed: List[Tuple[Iri, str]] = []
    network = build_network(corpus, unparsed=unparsed)
    if args.dot:
        sys.stdout.write(export_dot(network))
    else:
        sys.stdout.write(render_counts_report(network, unparsed))
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later ``main`` call in the process (argparse keeps no parse state on
    the parser)."""
    parser = argparse.ArgumentParser(
        prog="ontocite",
        description="Extract, render, parse, validate, and link ontology citations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cite = sub.add_parser("cite", help="render the citation for an ontology file")
    cite.add_argument("path")
    cite.add_argument("--style", choices=("canonical", "bibtex", "json"),
                      default="canonical")
    cite.add_argument("--format-label", choices=KNOWN_FORMAT_LABELS, default=None,
                      help="override the detected file format label in the citation")
    cite.set_defaults(func=_cmd_cite)

    parse_cmd = sub.add_parser(
        "parse",
        help="parse an ontology file to N-Triples, or a citation string to JSON",
    )
    parse_cmd.add_argument("input")
    parse_cmd.set_defaults(func=_cmd_parse)

    validate = sub.add_parser("validate",
                              help="validate an ontology file or citation string")
    validate.add_argument("input")
    validate.set_defaults(func=_cmd_validate)

    inject = sub.add_parser("inject",
                            help="add a publication reference to an ontology header")
    inject.add_argument("path")
    inject.add_argument("--reference", required=True, help="publication reference text")
    inject.add_argument("--lang", default="en", help="language tag (default: en)")
    inject.add_argument("--out", required=True, help="output N-Triples path")
    inject.set_defaults(func=_cmd_inject)

    check = sub.add_parser(
        "check-mutual",
        help="check that ontology and publication reference each other",
    )
    check.add_argument("onto_path")
    check.add_argument("reflist_path")
    check.add_argument("--threshold", type=float, default=DEFAULT_SIMILARITY_THRESHOLD,
                       help="token similarity threshold for the publication side")
    check.set_defaults(func=_cmd_check_mutual)

    network = sub.add_parser("network",
                             help="build the citation/import network over files")
    network.add_argument("paths", nargs="+")
    mode = network.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dot", action="store_true", help="emit DOT graph text")
    mode.add_argument("--counts", action="store_true", help="emit the JSON usage report")
    network.set_defaults(func=_cmd_network)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", OntociteWarning)
        try:
            code, error = args.func(args), None
        except (OntociteError, OSError) as exc:
            code, error = 2, exc
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
