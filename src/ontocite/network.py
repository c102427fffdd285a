"""Citation and import networks over a corpus of ontologies.

Edges record that one ontology imports another (``owl:imports``) or
references it (``dcterms:references`` with an IRI object, or a literal
whose text parses as a canonical citation). Unparseable reference texts
contribute no edge but are collected for reporting. Raw in-degree counts
are the usage metric; no derived impact score is computed.
"""

from __future__ import annotations

from collections.abc import Iterable
from json.encoder import encode_basestring

from .citation import _json_block, parse_canonical
from .exceptions import CitationParseError, DuplicateOntologyError, RdfModelError
from .model import Graph, Iri, Literal, Value
from .vocab import DCTERMS_REFERENCES, OWL_IMPORTS

IMPORTS = "imports"
REFERENCES = "references"


class Edge(Value):
    """One directed edge: ``src`` imports or references ``dst``."""

    __slots__ = _fields = ("src", "dst", "kind")

    def __init__(self, src: Iri, dst: Iri, kind: str):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "kind", kind)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src, self.dst, self.kind) == (other.src, other.dst, other.kind)

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.kind))


class CitationGraph(Value):
    """Directed graph over ontology IRIs with typed edges."""

    __slots__ = _fields = ("nodes", "edges")

    def __init__(self, nodes: frozenset, edges: frozenset):
        for edge in edges:
            if edge.src not in nodes or edge.dst not in nodes:
                raise RdfModelError(f"edge endpoint missing from node set: {edge}")
            if edge.kind == IMPORTS and edge.src == edge.dst:
                raise RdfModelError(f"self-loop import edge: {edge}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)


def build_network(
    corpus: Iterable[tuple[Graph, Iri]],
    unparsed: list[tuple[Iri, str]] | None = None,
) -> CitationGraph:
    """Build the citation graph for a corpus of (graph, ontology IRI) pairs.

    Reference texts that do not parse as canonical citations are appended
    to ``unparsed`` (when given) instead of producing an edge.
    """
    entries = list(corpus)
    seen = set()
    for _, onto in entries:
        if onto in seen:
            raise DuplicateOntologyError(f"ontology appears twice in the corpus: <{onto.value}>")
        seen.add(onto)

    nodes = set(seen)
    edges = set()
    for g, onto in entries:
        for t in g.match(onto, OWL_IMPORTS, None):
            if isinstance(t.object, Iri) and t.object != onto:
                edges.add(Edge(onto, t.object, IMPORTS))
        for t in g.match(onto, DCTERMS_REFERENCES, None):
            if isinstance(t.object, Iri):
                edges.add(Edge(onto, t.object, REFERENCES))
            elif isinstance(t.object, Literal):
                try:
                    record = parse_canonical(t.object.lexical)
                except CitationParseError:
                    if unparsed is not None:
                        unparsed.append((onto, t.object.lexical))
                else:
                    edges.add(Edge(onto, record.uri, REFERENCES))
    nodes.update(edge.dst for edge in edges)
    return CitationGraph(nodes=frozenset(nodes), edges=frozenset(edges))


def _by_value(nodes: Iterable[Iri]) -> list[Iri]:
    return sorted(nodes, key=lambda node: node.value)


def usage_counts(cg: CitationGraph) -> dict[Iri, tuple[int, int]]:
    """Per-node in-degree split by edge kind, over all nodes (including
    those with no incoming edges); keys iterate in the order of their IRI strings."""
    tallies: dict[Iri, list[int]] = {node: [0, 0] for node in _by_value(cg.nodes)}
    for edge in cg.edges:
        slot = 0 if edge.kind == IMPORTS else 1
        tallies[edge.dst][slot] += 1
    return {node: (imports, references) for node, (imports, references) in tallies.items()}


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(cg: CitationGraph) -> str:
    """Deterministic DOT text: import edges solid, reference edges dashed."""
    lines = ["digraph ontocite {"]
    for node in _by_value(cg.nodes):
        lines.append(f"  {_dot_quote(node.value)};")
    for edge in sorted(cg.edges, key=lambda e: (e.src.value, e.dst.value, e.kind)):
        style = "solid" if edge.kind == IMPORTS else "dashed"
        lines.append(
            f"  {_dot_quote(edge.src.value)} -> {_dot_quote(edge.dst.value)} [style={style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_counts_report(
    cg: CitationGraph,
    unparsed: Iterable[tuple[Iri, str]] = (),
) -> str:
    """JSON usage report with stable key order: per-node counts plus any
    reference texts that could not be attributed to an ontology. The bytes
    are those of ``json.dumps(..., ensure_ascii=False, indent=2) + "\\n"``
    on that report, written in its fixed layout."""
    counts = [
        encode_basestring(node.value) + ": "
        + _json_block([f'"imports": {imports}', f'"references": {references}'], "    ", "{}")
        for node, (imports, references) in usage_counts(cg).items()
    ]
    texts = [
        _json_block([f'"ontology": {encode_basestring(onto.value)}',
                     f'"text": {encode_basestring(text)}'], "    ", "{}")
        for onto, text in sorted(unparsed, key=lambda pair: (pair[0].value, pair[1]))
    ]
    members = [f'"counts": {_json_block(counts, "  ", "{}")}',
               f'"unparsed_references": {_json_block(texts, "  ")}']
    return _json_block(members, "", "{}") + "\n"
