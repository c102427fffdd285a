"""Span recording for the traced run, installed from the benchmark's side.

``Tracer.install`` replaces ontocite's public functions, under the names the
calling modules bind (``cli.parse_turtle``, ``rdfio.Graph``, ``Graph.match``,
...), with wrappers that record one span per call: name, start, end, parent
span and the benchmark operation it belongs to.  Spans stay in memory until
the run ends.  ``layer_metrics`` turns them into per-layer counts, busy
times and self times (a span's duration minus the time its child spans
cover).  Nothing under ``src/`` is modified on disk.
"""

from __future__ import annotations

import json
import statistics
import time

# (module attribute path, attribute, span name, size measure)
# A size measure maps (args, kwargs, result) to a cheap value; strings are
# measured (UTF-8 bytes) only after the run.
_SITES = [
    ("cli", "detect_format_label", "rdfio.detect_format_label", None),
    ("cli", "parse_turtle", "rdfio.parse_turtle", "text-in"),
    ("cli", "parse_ntriples", "rdfio.parse_ntriples", "text-in"),
    ("cli", "serialize_ntriples", "rdfio.serialize_ntriples", "text-out"),
    ("rdfio", "Graph", "model.Graph", "len-out"),
    ("model.Graph", "match", "model.Graph.match", None),
    ("model.Graph", "insert", "model.Graph.insert", None),
    ("cli", "extract_metadata", "extract.extract_metadata", None),
    ("cli", "find_ontology_iri", "extract.find_ontology_iri", None),
    ("extract", "find_ontology_iri", "extract.find_ontology_iri", None),
    ("cli", "derive_acronym", "extract.derive_acronym", None),
    ("cli", "build_record", "citation.build_record", None),
    ("cli", "draft_fields", "citation.draft_fields", None),
    ("cli", "render_canonical", "citation.render_canonical", None),
    ("cli", "render_bibtex", "citation.render_bibtex", None),
    ("cli", "render_json", "citation.render_json", None),
    ("cli", "parse_canonical", "citation.parse_canonical", None),
    ("mutual", "render_canonical", "citation.render_canonical", None),
    ("network", "parse_canonical", "citation.parse_canonical", None),
    ("principles", "parse_canonical", "citation.parse_canonical", None),
    ("cli", "validate_citation_string", "principles.validate_citation_string", "len-out"),
    ("cli", "validate_record", "principles.validate_record", "len-out"),
    ("principles", "validate_record", "principles.validate_record", "len-out"),
    ("cli", "inject_reference", "mutual.inject_reference", None),
    ("cli", "list_references", "mutual.list_references", None),
    ("cli", "check_publication_side", "mutual.check_publication_side", "lines-in"),
    ("cli", "build_network", "network.build_network", "network-out"),
    ("cli", "export_dot", "network.export_dot", None),
    ("cli", "render_counts_report", "network.render_counts_report", None),
    # library entry points the benchmark itself calls (looked up on the package)
    ("", "validate_citation_string", "principles.validate_citation_string", "len-out"),
    ("", "parse_canonical", "citation.parse_canonical", None),
    ("", "render_canonical", "citation.render_canonical", None),
    ("", "render_bibtex", "citation.render_bibtex", None),
    ("", "render_json", "citation.render_json", None),
    ("", "record_from_json", "citation.record_from_json", None),
    ("cli", "main", "cli.main", None),
]


def _size(kind, args, kwargs, result):
    if kind == "text-in":
        return args[0]
    if kind == "text-out":
        return result
    if kind == "len-out":
        return len(result)
    if kind == "lines-in":
        return sum(1 for line in args[0].splitlines() if line.strip())
    if kind == "network-out":
        unparsed = kwargs.get("unparsed")
        return [len(result.edges), len(unparsed) if unparsed is not None else 0]
    return None


class Tracer:
    """Records spans for calls into ontocite while installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, op, error, size]
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, kind):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[1] = start
                span[5] = type(exc).__name__
                stack.pop()
                raise
            span[2] = clock()
            span[1] = start
            stack.pop()
            if kind is not None:
                span[6] = _size(kind, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        import importlib
        for path, attr, name, kind in _SITES:
            if path == "model.Graph":
                owner = importlib.import_module(package.__name__ + ".model").Graph
            elif path:
                owner = importlib.import_module(package.__name__ + "." + path)
            else:
                owner = package
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, kind))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def finish(self):
        """Replace deferred string sizes with their UTF-8 byte counts."""
        for span in self.spans:
            if isinstance(span[6], str):
                span[6] = len(span[6].encode("utf-8"))

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "error", "size"],
                       "names": names,
                       "spans": [[index[s[0]]] + s[1:] for s in self.spans]},
                      handle, separators=(",", ":"))


# Units of the per-layer metrics: busy times and counts are per benchmark
# operation ("/op"), means per call, rates over all calls.
UNITS = {
    "cli.calls": "1/op", "cli.self_ms": "ms/op",
    "rdfio.detect_calls": "1/op", "rdfio.detect_us": "us", "rdfio.ttl_parse_s": "s/op",
    "rdfio.nt_parse_s": "s/op", "rdfio.ttl_mb_s": "MB/s", "rdfio.nt_mb_s": "MB/s",
    "rdfio.triples_per_s": "1/s", "rdfio.parse_errors": "1/op", "rdfio.serialize_s": "s/op",
    "rdfio.serialize_mb_s": "MB/s", "rdfio.parse_peak_kib": "KiB",
    "model.graph_build_s": "s/op", "model.graph_triples": "1/op", "model.match_calls": "1/op",
    "model.match_s": "s/op", "model.insert_s": "s/op", "model.graph_build_peak_kib": "KiB",
    "extract.metadata_s": "s/op", "extract.self_s": "s/op", "extract.find_ontology_us": "us",
    "extract.acronym_us": "us",
    "citation.parse_canonical_us": "us", "citation.parse_failures": "1/op",
    "citation.build_record_us": "us", "citation.render_canonical_us": "us",
    "citation.render_bibtex_us": "us", "citation.render_json_us": "us",
    "citation.record_from_json_us": "us",
    "principles.validate_string_us": "us", "principles.validate_record_us": "us",
    "principles.diagnostics": "1/op",
    "mutual.check_ms": "ms", "mutual.lines_per_s": "1/s", "mutual.list_references_us": "us",
    "network.build_s": "s/op", "network.edges": "1/op", "network.unparsed": "1/op",
    "network.export_dot_ms": "ms", "network.report_ms": "ms",
    "trace.overhead_pct": "%",
}


def _mean(values):
    return statistics.fmean(values) if values else None


def layer_metrics(spans, ops):
    """Per-layer metrics from the finished spans of ``ops`` traced
    operations.  Counts and busy times are per operation, so they do not
    grow with the length of the run; rates and means are over all calls.
    A metric whose span never occurred in this run is None."""
    durations = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += durations[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def per_op(amount, *names):
        return amount / ops if any(n in by_name for n in names) else None

    def calls(name):
        return per_op(len(by_name.get(name, ())), name)

    def total(name, self_time=False):
        """Busy seconds of all calls, or None."""
        idx = by_name.get(name, ())
        return sum(durations[i] - (child[i] if self_time else 0) for i in idx) / 1e9 if idx else None

    def busy(name, self_time=False, scale=1.0):
        """Busy time per operation."""
        seconds = total(name, self_time)
        return None if seconds is None else seconds * scale / ops

    def mean_us(name):
        return _mean([durations[i] / 1e3 for i in by_name.get(name, ())])

    def sizes(name):
        return [spans[i][6] for i in by_name.get(name, ()) if spans[i][6] is not None]

    def rate(amount, seconds):
        return amount / seconds if seconds else None

    ttl_s = total("rdfio.parse_turtle", self_time=True)
    nt_s = total("rdfio.parse_ntriples", self_time=True)
    parse_names = ("rdfio.parse_turtle", "rdfio.parse_ntriples")
    parse_idx = by_name.get(parse_names[0], []) + by_name.get(parse_names[1], [])
    parsed_triples = sum(spans[i][6] or 0 for i in by_name.get("model.Graph", ())
                         if spans[i][3] >= 0 and spans[spans[i][3]][0] in parse_names)
    extract_names = [n for n in by_name if n.startswith("extract.")]
    extract_self = sum(durations[i] - child[i] for n in extract_names for i in by_name[n]) / 1e9
    principles_names = ("principles.validate_citation_string", "principles.validate_record")
    principles_top = [i for n in principles_names for i in by_name.get(n, ())
                      if spans[i][3] < 0 or not spans[spans[i][3]][0].startswith("principles.")]
    network_sizes = sizes("network.build_network")
    return {
        "cli.calls": calls("cli.main"),
        "cli.self_ms": busy("cli.main", self_time=True, scale=1e3),
        "rdfio.detect_calls": calls("rdfio.detect_format_label"),
        "rdfio.detect_us": mean_us("rdfio.detect_format_label"),
        "rdfio.ttl_parse_s": busy("rdfio.parse_turtle", self_time=True),
        "rdfio.nt_parse_s": busy("rdfio.parse_ntriples", self_time=True),
        "rdfio.ttl_mb_s": rate(sum(sizes("rdfio.parse_turtle")) / 1e6, ttl_s),
        "rdfio.nt_mb_s": rate(sum(sizes("rdfio.parse_ntriples")) / 1e6, nt_s),
        "rdfio.triples_per_s": rate(parsed_triples, (ttl_s or 0) + (nt_s or 0)),
        "rdfio.parse_errors": per_op(sum(1 for i in parse_idx if spans[i][5] == "ParseError"),
                                     *parse_names),
        "rdfio.serialize_s": busy("rdfio.serialize_ntriples"),
        "rdfio.serialize_mb_s": rate(sum(sizes("rdfio.serialize_ntriples")) / 1e6,
                                     total("rdfio.serialize_ntriples")),
        "model.graph_build_s": busy("model.Graph"),
        "model.graph_triples": per_op(sum(sizes("model.Graph")), "model.Graph"),
        "model.match_calls": calls("model.Graph.match"),
        "model.match_s": busy("model.Graph.match"),
        "model.insert_s": busy("model.Graph.insert"),
        "extract.metadata_s": busy("extract.extract_metadata"),
        "extract.self_s": per_op(extract_self, *extract_names),
        "extract.find_ontology_us": mean_us("extract.find_ontology_iri"),
        "extract.acronym_us": mean_us("extract.derive_acronym"),
        "citation.parse_canonical_us": mean_us("citation.parse_canonical"),
        "citation.parse_failures": per_op(sum(1 for i in by_name.get("citation.parse_canonical", ())
                                              if spans[i][5] == "CitationParseError"),
                                          "citation.parse_canonical"),
        "citation.build_record_us": mean_us("citation.build_record"),
        "citation.render_canonical_us": mean_us("citation.render_canonical"),
        "citation.render_bibtex_us": mean_us("citation.render_bibtex"),
        "citation.render_json_us": mean_us("citation.render_json"),
        "citation.record_from_json_us": mean_us("citation.record_from_json"),
        "principles.validate_string_us": mean_us("principles.validate_citation_string"),
        "principles.validate_record_us": mean_us("principles.validate_record"),
        "principles.diagnostics": per_op(sum(spans[i][6] or 0 for i in principles_top),
                                         *principles_names),
        "mutual.check_ms": _mean([durations[i] / 1e6
                                  for i in by_name.get("mutual.check_publication_side", ())]),
        "mutual.lines_per_s": rate(sum(sizes("mutual.check_publication_side")),
                                   total("mutual.check_publication_side")),
        "mutual.list_references_us": mean_us("mutual.list_references"),
        "network.build_s": busy("network.build_network"),
        "network.edges": per_op(sum(s[0] for s in network_sizes), "network.build_network"),
        "network.unparsed": per_op(sum(s[1] for s in network_sizes), "network.build_network"),
        "network.export_dot_ms": _mean([durations[i] / 1e6 for i in by_name.get("network.export_dot", ())]),
        "network.report_ms": _mean([durations[i] / 1e6
                                    for i in by_name.get("network.render_counts_report", ())]),
    }
