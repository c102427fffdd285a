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

from . import _load
from .exceptions import OntociteError, OntociteWarning
from .vocab import EXTENSION_LABELS, KNOWN_FORMAT_LABELS

_PARSEABLE = {"turtle", "n-triples"}

# Every other module is loaded by the first command that runs it: the
# commands read each library name as an attribute of this module, ``_cli``,
# and ``__getattr__`` binds it on its first read. A bound name is never
# rebound, so a wrapper set here (perfbench/spans.py wraps by ``setattr``)
# stays in the command's call path. The annotations name ``Graph`` and
# ``Iri`` without binding them; ``from __future__ import annotations``
# never evaluates them.
_cli = sys.modules[__name__]


def __getattr__(name: str):
    return _load(name, globals())


def _write(text: str) -> None:
    """Write ``text`` to standard output; a character that its encoding
    cannot hold is an error, not a traceback."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as exc:
        raise OntociteError(f"standard output encoding {exc.encoding} cannot encode "
                            f"U+{ord(exc.object[exc.start]):04X}") from None


def _shown(path: str) -> str:
    """``path`` as an error line echoes it: each C0 control character and
    DEL as ``\\xNN``, every other character as given."""
    return re.sub(r"[\x00-\x1f\x7f]", lambda m: f"\\x{ord(m.group()):02x}", path)


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``, less one leading UTF-8 byte order
    mark: it marks the encoding and is no character of the text."""
    try:
        with open(path, "rb") as handle:
            return handle.read().removeprefix(b"\xef\xbb\xbf")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise OntociteError(f"cannot read {_shown(path)}: {exc}") from None


def _decode(path: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OntociteError(f"{_shown(path)} is not valid UTF-8: {exc}") from None


def _load_graph(path: str) -> tuple[Graph, str]:
    """Read a file once, detect its format from the first 2,048 bytes, and
    parse it; returns (graph, format label)."""
    data = _read_bytes(path)
    head = data[:2048].decode("utf-8", "replace")
    try:
        label = _cli.detect_format_label(os.path.basename(path), head)
    except OntociteError as exc:
        raise OntociteError(f"{_shown(path)}: {exc}") from None
    if label not in _PARSEABLE:
        raise OntociteError(f"{_shown(path)}: {label} input is not parsed natively; "
                            "convert to Turtle or N-Triples first")
    text = _decode(path, data)
    del data  # not needed while parsing
    try:
        if label == "turtle":
            return _cli.parse_turtle(text), label
        return _cli.parse_ntriples(text), label
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
    meta = _cli.extract_metadata(graph, fmt=args.format_label or label)
    record = _cli.build_record(meta, _cli.derive_acronym(meta))
    if args.style == "canonical":
        _write(_cli.render_canonical(record) + "\n")
    elif args.style == "bibtex":
        _write(_cli.render_bibtex(record))
    else:
        _write(_cli.render_json(record))
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    if _looks_like_file(args.input):
        graph, _ = _load_graph(args.input)
        _write(_cli.serialize_ntriples(graph))
        return 0
    record = _cli.parse_canonical(args.input)
    _write(_cli.render_json(record))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if _looks_like_file(args.input):
        graph, label = _load_graph(args.input)
        meta = _cli.extract_metadata(graph, fmt=label)
        split = _cli.derive_acronym(meta) if meta.title else None
        diagnostics = _cli.validate_record(_cli.draft_fields(meta, split))
    else:
        diagnostics = _cli.validate_citation_string(args.input)
    _write("".join(f"{d.code}\t{d.severity}\t{d.message}\n" for d in diagnostics))
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _cmd_inject(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args.path)
    iri = _cli.find_ontology_iri(graph)
    injected = _cli.inject_reference(graph, iri, args.reference, args.lang)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(_cli.serialize_ntriples(injected))
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise OntociteError(f"cannot write {_shown(args.out)}: {exc}") from None
    return 0


def _cmd_check_mutual(args: argparse.Namespace) -> int:
    graph, label = _load_graph(args.onto_path)
    meta = _cli.extract_metadata(graph, fmt=label)
    record = _cli.build_record(meta, _cli.derive_acronym(meta))
    refs = _cli.list_references(graph, meta.ontology_iri)
    reflist = _decode(args.reflist_path, _read_bytes(args.reflist_path))
    threshold = _cli.DEFAULT_SIMILARITY_THRESHOLD if args.threshold is None else args.threshold
    result = _cli.check_publication_side(reflist, record, threshold=threshold)
    ontology_side = bool(refs)
    _write(f"ontology-side\t{'true' if ontology_side else 'false'}\n"
           f"publication-side\t{'true' if result.found else 'false'}"
           f"\tsimilarity={result.similarity:.3f}\n")
    return 0 if ontology_side and result.found else 1


def _cmd_network(args: argparse.Namespace) -> int:
    # each file is read and parsed only when build_network asks for its pair
    corpus = ((graph, _cli.find_ontology_iri(graph))
              for graph, _ in map(_load_graph, args.paths))
    unparsed: list[tuple[Iri, str]] = []
    network = _cli.build_network(corpus, unparsed=unparsed)
    if args.dot:
        _write(_cli.export_dot(network))
    else:
        _write(_cli.render_counts_report(network, unparsed))
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each command's parser by name, built on
    the first call and reused by every later ``main`` call in the process
    (argparse keeps no parse state on a parser)."""
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
    check.add_argument("--threshold", type=float, default=None,
                       help="token similarity threshold for the publication side, 0 to 1")
    check.set_defaults(func=_cmd_check_mutual)

    network = sub.add_parser("network",
                             help="build the citation/import network over files")
    network.add_argument("paths", nargs="+")
    mode = network.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dot", action="store_true", help="emit DOT graph text")
    mode.add_argument("--counts", action="store_true", help="emit the JSON usage report")
    network.set_defaults(func=_cmd_network)

    return parser, sub.choices


def _arguments(argv: list[str]) -> argparse.Namespace:
    """``argv`` as the full parser reads it, in one pass: that parser hands all
    that follows a command's name to the command's parser, so this calls that
    one directly, and the full parser (for its errors) for anything else."""
    parser, commands = _build_parser()
    name = argv[0] if argv else None
    if name in commands:
        args, extra = commands[name].parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _arguments(sys.argv[1:] if argv is None else argv)
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
