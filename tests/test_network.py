import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontocite import (
    DuplicateOntologyError,
    Edge,
    Graph,
    Iri,
    Literal,
    RdfModelError,
    Triple,
    build_network,
    export_dot,
    find_ontology_iri,
    parse_turtle,
    render_counts_report,
    usage_counts,
)
from ontocite.network import IMPORTS, REFERENCES, CitationGraph
from ontocite.vocab import DCTERMS_REFERENCES, OWL_IMPORTS, OWL_ONTOLOGY, RDF_TYPE

from conftest import NETWORK, PAV_CITATION
from strategies import iris, json_texts

A = Iri("http://example.org/net/a")
B = Iri("http://example.org/net/b")


def onto_graph(iri, *extra):
    return Graph([Triple(iri, RDF_TYPE, OWL_ONTOLOGY), *extra])


def load_corpus():
    corpus = []
    for path in sorted(NETWORK.glob("*.ttl")):
        g = parse_turtle(path.read_text("utf-8"))
        corpus.append((g, find_ontology_iri(g)))
    return corpus


def manifest():
    return json.loads((NETWORK / "manifest.json").read_text("utf-8"))


class TestBuildNetwork:
    def test_single_import_edge(self):
        g = onto_graph(A, Triple(A, OWL_IMPORTS, B))
        network = build_network([(g, A)])
        assert network.nodes == frozenset({A, B})
        assert network.edges == frozenset({Edge(A, B, "imports")})

    def test_reference_edge_from_citation_literal(self):
        g = onto_graph(A, Triple(A, DCTERMS_REFERENCES, Literal(PAV_CITATION)))
        network = build_network([(g, A)])
        assert Edge(A, Iri("http://purl.org/pav/"), "references") in network.edges

    def test_unparseable_literal_reported_not_edged(self):
        g = onto_graph(A, Triple(A, DCTERMS_REFERENCES, Literal("just some prose")))
        unparsed = []
        network = build_network([(g, A)], unparsed=unparsed)
        assert network.edges == frozenset()
        assert unparsed == [(A, "just some prose")]

    def test_duplicate_ontology_rejected(self):
        g = onto_graph(A)
        with pytest.raises(DuplicateOntologyError):
            build_network([(g, A), (g, A)])

    def test_self_import_dropped(self):
        g = onto_graph(A, Triple(A, OWL_IMPORTS, A))
        assert build_network([(g, A)]).edges == frozenset()

    def test_fixture_edges_match_manifest(self):
        network = build_network(load_corpus())
        expected = frozenset(
            Edge(Iri(e["from"]), Iri(e["to"]), e["kind"]) for e in manifest()["edges"]
        )
        assert network.edges == expected
        assert network.nodes == frozenset(Iri(n) for n in manifest()["nodes"])

    def test_fixture_edges_match_brute_force_scan(self):
        corpus = load_corpus()
        brute = set()
        for g, onto in corpus:
            for t in g:
                if t.subject != onto:
                    continue
                if t.predicate == OWL_IMPORTS and isinstance(t.object, Iri):
                    if t.object != onto:
                        brute.add((onto.value, t.object.value, "imports"))
                elif t.predicate == DCTERMS_REFERENCES:
                    if isinstance(t.object, Iri):
                        brute.add((onto.value, t.object.value, "references"))
                    else:
                        from ontocite import CitationParseError, parse_canonical
                        try:
                            record = parse_canonical(t.object.lexical)
                        except CitationParseError:
                            continue
                        brute.add((onto.value, record.uri.value, "references"))
        network = build_network(corpus)
        assert {(e.src.value, e.dst.value, e.kind) for e in network.edges} == brute

    def test_unparsed_report_matches_manifest(self):
        unparsed = []
        build_network(load_corpus(), unparsed=unparsed)
        expected = [
            (Iri(entry["ontology"]), entry["text"])
            for entry in manifest()["unparsed_references"]
        ]
        assert unparsed == expected

    @given(seed=st.randoms())
    @settings(max_examples=20)
    def test_permutation_invariance(self, seed):
        corpus = load_corpus()
        shuffled = list(corpus)
        seed.shuffle(shuffled)
        assert build_network(shuffled) == build_network(corpus)


class TestUsageCounts:
    def test_single_edge(self):
        g = onto_graph(A, Triple(A, OWL_IMPORTS, B))
        counts = usage_counts(build_network([(g, A)]))
        assert counts[B] == (1, 0)
        assert counts[A] == (0, 0)

    def test_empty_graph(self):
        assert usage_counts(build_network([])) == {}

    def test_fixture_counts_match_manifest_and_brute_force(self):
        network = build_network(load_corpus())
        counts = usage_counts(network)
        expected = {
            Iri(node): (entry["imports"], entry["references"])
            for node, entry in manifest()["counts"].items()
        }
        assert counts == expected
        # independent tally straight off the edge list
        tally = {node: [0, 0] for node in network.nodes}
        for edge in network.edges:
            tally[edge.dst][0 if edge.kind == "imports" else 1] += 1
        assert counts == {n: tuple(v) for n, v in tally.items()}

    def test_total_in_degree_equals_edge_count(self):
        network = build_network(load_corpus())
        counts = usage_counts(network)
        assert sum(i + r for i, r in counts.values()) == len(network.edges)


class TestExportDot:
    def test_empty(self):
        assert export_dot(build_network([])) == "digraph ontocite {\n}\n"

    def test_one_edge_line(self):
        g = onto_graph(A, Triple(A, OWL_IMPORTS, B))
        dot = export_dot(build_network([(g, A)]))
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert edge_lines == [
            '  "http://example.org/net/a" -> "http://example.org/net/b" [style=solid];'
        ]

    def test_reference_edges_dashed(self):
        g = onto_graph(A, Triple(A, DCTERMS_REFERENCES, B))
        dot = export_dot(build_network([(g, A)]))
        assert "[style=dashed];" in dot

    def test_deterministic(self):
        network = build_network(load_corpus())
        assert export_dot(network) == export_dot(network)

    def test_sorted_output(self):
        dot = export_dot(build_network(load_corpus()))
        node_lines = [l for l in dot.splitlines() if l.endswith('";')]
        assert node_lines == sorted(node_lines)


class TestCountsReport:
    def test_report_shape(self):
        unparsed = []
        network = build_network(load_corpus(), unparsed=unparsed)
        report = json.loads(render_counts_report(network, unparsed))
        assert report["counts"] == manifest()["counts"]
        assert report["unparsed_references"] == manifest()["unparsed_references"]

    def test_stable_key_order(self):
        network = build_network(load_corpus())
        text = render_counts_report(network)
        keys = list(json.loads(text)["counts"].keys())
        assert keys == sorted(keys)


@st.composite
def citation_graphs(draw):
    """Networks over IRIs that share prefixes and hold characters sorting
    below and above the DOT quote, with both edge kinds."""
    nodes = draw(st.lists(iris, unique=True, max_size=8))
    edges = set()
    if nodes:
        drawn = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                                         st.sampled_from([IMPORTS, REFERENCES])), max_size=16))
        edges = {Edge(*edge) for edge in drawn if not (edge[2] == IMPORTS and edge[0] == edge[1])}
    return CitationGraph(nodes=frozenset(nodes), edges=frozenset(edges))


@pytest.mark.parametrize("edge,message", [
    (Edge(A, Iri("http://example.org/net/z"), REFERENCES),
     "edge endpoint missing from node set: Edge(src=Iri(value='http://example.org/net/a'), "
     "dst=Iri(value='http://example.org/net/z'), kind='references')"),
    (Edge(A, A, IMPORTS),
     "self-loop import edge: Edge(src=Iri(value='http://example.org/net/a'), "
     "dst=Iri(value='http://example.org/net/a'), kind='imports')"),
], ids=["endpoint-missing", "self-loop-import"])
def test_citation_graph_rejects_bad_edges(edge, message):
    with pytest.raises(RdfModelError) as exc:
        CitationGraph(nodes=frozenset({A, B}), edges=frozenset({edge}))
    assert str(exc.value) == message


def _dot_quote(value):
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


class TestFixedLayout:
    """The DOT text and the counts report, against the order and the JSON
    encoder they were first written with: ``Iri`` compared as its
    ``(value,)`` tuple and ``json.dumps(..., ensure_ascii=False, indent=2)``."""

    @given(cg=citation_graphs())
    @settings(max_examples=300, deadline=None)
    def test_dot_in_the_sorted_order(self, cg):
        lines = ["digraph ontocite {"]
        lines += [f"  {_dot_quote(value)};" for value in sorted(n.value for n in cg.nodes)]
        lines += [
            f"  {_dot_quote(src)} -> {_dot_quote(dst)} "
            f"[style={'solid' if kind == IMPORTS else 'dashed'}];"
            for src, dst, kind in sorted((e.src.value, e.dst.value, e.kind) for e in cg.edges)
        ]
        assert export_dot(cg) == "\n".join(lines + ["}"]) + "\n"

    @given(cg=citation_graphs(), unparsed=st.lists(st.tuples(iris, json_texts), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_counts_report_equals_json_dumps(self, cg, unparsed):
        counts = {value: {"imports": 0, "references": 0}
                  for value in sorted(n.value for n in cg.nodes)}
        for edge in cg.edges:
            counts[edge.dst.value]["imports" if edge.kind == IMPORTS else "references"] += 1
        data = {
            "counts": counts,
            "unparsed_references": [
                {"ontology": onto, "text": text}
                for onto, text in sorted((onto.value, text) for onto, text in unparsed)
            ],
        }
        expected = json.dumps(data, ensure_ascii=False, indent=2) + "\n"
        assert render_counts_report(cg, unparsed) == expected

    def test_empty_report(self):
        assert render_counts_report(build_network([])) == (
            '{\n  "counts": {},\n  "unparsed_references": []\n}\n')
