from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontocite import BlankNode, Graph, Iri, Literal, RdfModelError, Triple
from ontocite.model import nt

from strategies import graphs, triples

A = Iri("http://example.org/a")
P = Iri("http://example.org/p")


def t(obj):
    return Triple(A, P, obj)


class TestTerms:
    def test_iri_requires_scheme(self):
        with pytest.raises(RdfModelError):
            Iri("no-scheme-here/path")

    @pytest.mark.parametrize(
        "bad", ["", "http://a b", 'http://a"b', "http://a<b", "http://a>b", "http://a\ud800"])
    def test_iri_rejects_forbidden(self, bad):
        with pytest.raises(RdfModelError):
            Iri(bad)

    @pytest.mark.parametrize("good", ["http://a", "https://x/y#z", "urn:isbn:12", "tag:x,2020:1"])
    def test_iri_accepts(self, good):
        assert Iri(good).value == good

    def test_literal_lang_and_datatype_exclusive(self):
        with pytest.raises(RdfModelError):
            Literal("x", lang="en", datatype=A)

    def test_literal_lang_normalized(self):
        assert Literal("x", lang="EN").lang == "en"
        assert Literal("x", lang="EN-US").lang == "en-US"

    @pytest.mark.parametrize("lexical,code", [("\udc00", "DC00"), ("café \ud800 \udfff", "D800")])
    def test_literal_rejects_lone_surrogate(self, lexical, code):
        with pytest.raises(RdfModelError) as exc:
            Literal(lexical)
        # the first code point is named, never the character itself
        assert str(exc.value) == f"lone surrogate U+{code} in literal"

    @pytest.mark.parametrize("bad", ["", "-en", "en-", "toolongtag9", "e n"])
    def test_literal_bad_lang(self, bad):
        with pytest.raises(RdfModelError):
            Literal("x", lang=bad)

    def test_blank_node_label(self):
        assert BlankNode("b1").label == "b1"
        with pytest.raises(RdfModelError):
            BlankNode("not ok")

    def test_triple_subject_never_literal(self):
        with pytest.raises(RdfModelError):
            Triple(Literal("x"), P, A)

    def test_triple_predicate_only_iri(self):
        with pytest.raises(RdfModelError):
            Triple(A, BlankNode("b"), A)

    @pytest.mark.parametrize("build,message", [
        (lambda: Literal("x", datatype="http://d"), "literal datatype must be an Iri"),
        (lambda: Triple(Literal("x"), P, A),
         "triple subject must be an IRI or blank node, got Literal"),
        (lambda: Triple(A, "http://p", A), "triple predicate must be an IRI, got str"),
        (lambda: Triple(A, P, None), "triple object must be an RDF term, got NoneType"),
        (lambda: Graph([t(Literal("x")), (A, P, A)]), "graph elements must be triples, got tuple"),
        (lambda: Graph().insert("x"), "cannot insert str into a graph"),
        (lambda: nt("x"), "not an RDF term: 'x'"),
    ], ids=["literal-datatype", "triple-subject", "triple-predicate", "triple-object",
            "graph-element", "graph-insert", "nt"])
    def test_constructors_check_types(self, build, message):
        with pytest.raises(RdfModelError) as exc:
            build()
        assert str(exc.value) == message

    def test_structural_equality(self):
        assert t(Literal("x", lang="en")) == t(Literal("x", lang="en"))
        assert t(Literal("x", lang="en")) != t(Literal("x", lang="fr"))


class TestGraph:
    def test_singleton_insert(self):
        g = Graph().insert(t(Literal("x")))
        assert len(g) == 1

    def test_insert_idempotent(self):
        g = Graph().insert(t(Literal("x")))
        assert len(g.insert(t(Literal("x")))) == 1

    def test_distinct_elements(self):
        g = Graph([t(Literal("x")), t(Literal("y"))])
        assert len(g) == 2

    def test_insert_rejects_non_triple(self):
        with pytest.raises(RdfModelError):
            Graph().insert("not a triple")

    def test_insert_hashes_only_the_new_triple(self, monkeypatch):
        g = Graph(Triple(A, P, Literal(str(i))) for i in range(200))
        hashed = []
        triple_hash = Triple.__hash__

        def counting(triple):
            hashed.append(triple)
            return triple_hash(triple)

        extra = t(Literal("new"))
        monkeypatch.setattr(Triple, "__hash__", counting)
        grown = g.insert(extra)
        assert all(x is extra for x in hashed) and len(hashed) <= 2
        monkeypatch.undo()
        assert len(grown) == 201 and extra in grown
        assert set(grown) == set(g) | {extra}

    @staticmethod
    def term_hashes(monkeypatch):
        """The terms hashed from now on, in order."""
        hashed = []
        for cls in (Iri, Literal, BlankNode):
            def counting(term, original=cls.__hash__):
                hashed.append(term)
                return original(term)
            monkeypatch.setattr(cls, "__hash__", counting)
        return hashed

    SUBJECTS_200 = [Iri(f"http://example.org/s{i}") for i in range(200)]

    def test_match_without_subject_hashes_no_term(self, monkeypatch):
        g = Graph(Triple(s, P, Literal(str(i))) for i, s in enumerate(self.SUBJECTS_200))
        hashed = self.term_hashes(monkeypatch)
        assert g.match(None, P, Literal("7")) == [Triple(self.SUBJECTS_200[7], P, Literal("7"))]
        assert len(g.match(None, P)) == 200
        assert hashed == []

    def test_match_with_subject_indexes_only_subjects(self, monkeypatch):
        g = Graph(Triple(s, P, Literal(str(i))) for i, s in enumerate(self.SUBJECTS_200))
        pattern = self.SUBJECTS_200[7]
        hashed = self.term_hashes(monkeypatch)
        assert g.match(pattern) == [Triple(pattern, P, Literal("7"))]
        # each subject once while indexing, then the pattern: no predicate or object
        assert sorted(map(id, hashed)) == sorted(map(id, [*self.SUBJECTS_200, pattern]))

    def test_match_full_wildcard(self, pav_graph):
        assert pav_graph.match() == list(pav_graph)

    def test_match_title(self, pav_graph):
        hits = pav_graph.match(
            Iri("http://purl.org/pav/"), Iri("http://purl.org/dc/terms/title"), None
        )
        assert len(hits) == 1
        assert hits[0].object == Literal(
            "PAV - Provenance, Authoring and Versioning", lang="en"
        )

    def test_match_empty_graph(self):
        assert Graph().match(A, None, None) == []

    def test_size_counts_set(self):
        assert len(Graph()) == 0
        g = Graph().insert(t(Literal("x"))).insert(t(Literal("x")))
        assert len(g) == 1
        g = Graph([t(Literal("a")), t(Literal("b")), t(Literal("c"))])
        assert len(g) == 3

    @given(g=graphs, extra=triples)
    def test_insert_idempotence_property(self, g, extra):
        once = g.insert(extra)
        assert len(once.insert(extra)) == len(once)

    @given(g=graphs, data=st.data())
    def test_match_equals_brute_force(self, g, data):
        members = list(g)
        before = hash(g)

        def position(base, name):
            # mostly a term of a triple of g, so that patterns hit
            own = st.just(getattr(base, name))
            return st.one_of(own, own, st.none(), triples.map(attrgetter(name)))

        def brute(graph, s, p, o):
            return [
                x for x in graph
                if (s is None or x.subject == s)
                and (p is None or x.predicate == p)
                and (o is None or x.object == o)
            ]

        for _ in range(5):  # one graph object, so later patterns reuse its index
            base = data.draw(st.sampled_from(members) if members else triples)
            s, p, o = (data.draw(position(base, n)) for n in ("subject", "predicate", "object"))
            assert g.match(s, p, o) == brute(g, s, p, o)
        assert hash(g) == before
        assert g == Graph(members)
        assert hash(Graph(members)) == hash(g)

        extra = data.draw(st.sampled_from(members) | triples if members else triples)
        grown = g.insert(extra)
        assert extra in grown.match(extra.subject, extra.predicate, extra.object)
        assert grown.match(extra.subject) == brute(grown, extra.subject, None, None)
        assert grown.match(None, extra.predicate) == brute(grown, None, extra.predicate, None)
        assert (extra in g.match(extra.subject)) == (extra in members)

    @given(g=graphs)
    def test_iteration_deterministic_across_orderings(self, g):
        reversed_build = Graph(reversed(list(g)))
        assert list(reversed_build) == list(g)
        assert reversed_build == g
