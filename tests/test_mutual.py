import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontocite import (
    Iri,
    Literal,
    NotOntologyNodeError,
    OntociteError,
    OntociteWarning,
    Triple,
    check_publication_side,
    inject_reference,
    list_references,
    render_canonical,
)
from ontocite.mutual import _jaccard, _similarity_tokens
from ontocite.vocab import DC_RELATION, DCTERMS_REFERENCES

from conftest import PAV_CITATION, PUBLICATION_REF, REFLISTS, pav_record
from strategies import citation_records

PAV = Iri("http://purl.org/pav/")


class TestInjectReference:
    def test_injects_publication_reference(self, pav_graph):
        g = inject_reference(pav_graph, PAV, PUBLICATION_REF, "en")
        hits = g.match(PAV, DCTERMS_REFERENCES, None)
        assert [t.object for t in hits] == [Literal(PUBLICATION_REF, lang="en")]

    def test_idempotent(self, pav_graph):
        once = inject_reference(pav_graph, PAV, PUBLICATION_REF, "en")
        twice = inject_reference(once, PAV, PUBLICATION_REF, "en")
        assert twice == once
        assert len(twice) == len(pav_graph) + 1

    def test_distinct_texts_accumulate(self, pav_graph):
        g = inject_reference(pav_graph, PAV, "Ref one.", "en")
        g = inject_reference(g, PAV, "Ref two.", "en")
        assert len(g.match(PAV, DCTERMS_REFERENCES, None)) == 2

    def test_non_ontology_target_rejected(self, pav_graph):
        with pytest.raises(NotOntologyNodeError):
            inject_reference(pav_graph, Iri("http://example.org/other"), "text", "en")

    def test_empty_text_rejected(self, pav_graph):
        with pytest.raises(ValueError):
            inject_reference(pav_graph, PAV, "   ", "en")

    def test_empty_text_is_an_ontocite_error(self, pav_graph):
        with pytest.raises(OntociteError):
            inject_reference(pav_graph, PAV, "", "en")

    def test_language_tag_normalized(self, pav_graph):
        g = inject_reference(pav_graph, PAV, "Ref.", "EN")
        assert list_references(g, PAV) == [("Ref.", "en")]

    @given(text=st.text(min_size=1, max_size=80).filter(str.strip),
           lang=st.sampled_from(["en", "de", None]))
    @settings(max_examples=100)
    def test_round_trip_property(self, text, lang):
        from ontocite import parse_turtle
        from conftest import HEADERS
        g = parse_turtle((HEADERS / "pav.ttl").read_text("utf-8"))
        injected = inject_reference(g, PAV, text, lang)
        assert (text, lang) in list_references(injected, PAV)
        assert inject_reference(injected, PAV, text, lang) == injected


class TestListReferences:
    def test_pristine_fixture_empty(self, pav_graph):
        assert list_references(pav_graph, PAV) == []

    def test_post_injection_single_entry(self, pav_graph):
        g = inject_reference(pav_graph, PAV, PUBLICATION_REF, "en")
        assert list_references(g, PAV) == [(PUBLICATION_REF, "en")]

    def test_two_references_deterministic_order(self, pav_graph):
        g = inject_reference(pav_graph, PAV, "B ref.", "en")
        g = inject_reference(g, PAV, "A ref.", "en")
        assert list_references(g, PAV) == [("A ref.", "en"), ("B ref.", "en")]

    def test_legacy_relation_read_with_warning(self, pav_graph):
        g = pav_graph.insert(Triple(PAV, DC_RELATION, Literal("Legacy ref.")))
        assert list_references(g, PAV) == []
        with pytest.warns(OntociteWarning, match="legacy dc:relation") as caught:
            refs = list_references(g, PAV, include_legacy=True)
        assert ("Legacy ref.", None) in refs
        assert len(caught) == 1


class TestCheckPublicationSide:
    def test_reflist_with_ontology_reference(self):
        text = (REFLISTS / "reflist_with_ontology_ref.txt").read_text("utf-8")
        result = check_publication_side(text, pav_record())
        assert result.found
        assert result.similarity >= 0.6
        assert "http://purl.org/pav/" in result.matched_line

    def test_empty_text(self):
        result = check_publication_side("", pav_record())
        assert not result.found
        assert result.similarity == 0.0
        assert result.matched_line is None

    def test_journal_citation_is_not_the_ontology_citation(self):
        text = (REFLISTS / "reflist_journal_only.txt").read_text("utf-8")
        result = check_publication_side(text, pav_record())
        assert not result.found

    def test_exact_canonical_line(self):
        result = check_publication_side(PAV_CITATION, pav_record())
        assert result.found
        assert result.similarity == 1.0
        assert result.matched_line == PAV_CITATION

    def test_house_style_reordering_matches(self):
        # same tokens, reordered date and version; URI and year intact
        line = (
            "Ciccarese, P. and Soiland-Reyes, S. PAV: Provenance, Authoring "
            "and Versioning. 2.3.1 (2014-08-28). http://purl.org/pav/ [rdf/xml]"
        )
        result = check_publication_side(line, pav_record())
        assert result.found

    def test_threshold_tunable(self):
        # version and format dropped: same citation, lower token overlap
        line = (
            "Ciccarese, P. and Soiland-Reyes, S. (2014-08-28). "
            "PAV: Provenance, Authoring and Versioning. http://purl.org/pav/"
        )
        assert check_publication_side(line, pav_record(), threshold=0.6).found
        assert not check_publication_side(line, pav_record(), threshold=0.95).found

    @given(record=citation_records())
    @settings(max_examples=300, deadline=None)
    def test_canonical_rendering_always_found(self, record):
        result = check_publication_side(render_canonical(record), record)
        assert result.found

    @given(record=citation_records())
    @settings(max_examples=200, deadline=None)
    def test_never_matches_across_uris(self, record):
        other = Iri("http://different.example.org/" + record.uri.value.split("/", 3)[-1])
        if other == record.uri:
            return
        line = render_canonical(record).replace(record.uri.value, other.value)
        assert not check_publication_side(line, record).found


def _loop_tokens(line):
    tokens = set()
    for token in line.lower().split():
        cleaned = token.strip(string.punctuation)
        if cleaned:
            tokens.add(cleaned)
    return tokens


_TOKEN_LINES = st.text(alphabet=st.one_of(
    st.sampled_from(string.punctuation),
    st.sampled_from(" \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u1680\u2000\u2028\u3000"),
    st.characters(categories=("L",)),
), max_size=30)


class TestSimilarity:
    @given(a=_TOKEN_LINES, b=_TOKEN_LINES)
    @settings(max_examples=500)
    def test_tokens_and_jaccard_equal_the_loop_and_the_union(self, a, b):
        tokens_a, tokens_b = _similarity_tokens(a), _similarity_tokens(b)
        assert tokens_a == _loop_tokens(a) and tokens_b == _loop_tokens(b)
        union = len(tokens_a | tokens_b)
        expected = len(tokens_a & tokens_b) / union if tokens_a and tokens_b else 0.0
        assert _jaccard(tokens_a, tokens_b) == expected
