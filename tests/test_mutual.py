import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontocite import (
    Agent,
    CitationRecord,
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
from ontocite.mutual import _jaccard, _reference_lines, _similarity_tokens
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
        g = inject_reference(pav_graph, PAV, "Current ref.", "en")
        for obj in (Literal("Legacy B."), Iri("http://example.org/paper"), Literal("Legacy A.")):
            g = g.insert(Triple(PAV, DC_RELATION, obj))
        with pytest.warns(OntociteWarning, match="legacy dc:relation") as caught:
            refs = list_references(g, PAV)
        assert refs == [("Current ref.", "en"), ("Legacy A.", None), ("Legacy B.", None)]
        assert len(caught) == 2


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

    def test_exact_line_wins_over_an_earlier_gated_line(self):
        reordered = (
            "Ciccarese, P. and Soiland-Reyes, S. PAV: Provenance, Authoring "
            "and Versioning. 2.3.1 (2014-08-28). http://purl.org/pav/ [rdf/xml]"
        )
        assert check_publication_side(reordered, pav_record()).similarity == 1.0
        spaced = PAV_CITATION.replace(" ", " \t\u3000")
        result = check_publication_side(reordered + "\n" + spaced, pav_record())
        assert (result.found, result.matched_line) == (True, PAV_CITATION)

    def test_first_of_two_equal_gated_lines_wins(self):
        no_format = PAV_CITATION.replace(" [rdf/xml]", "")
        no_version = PAV_CITATION.replace(" 2.3.1.", "")
        for first, second in ((no_format, no_version), (no_version, no_format)):
            result = check_publication_side(f"{first}\n{second}", pav_record())
            assert result == check_publication_side(first, pav_record())
            assert (result.found, result.matched_line) == (True, first)
            assert result.similarity == check_publication_side(second, pav_record()).similarity

    def test_longer_uri_holding_the_uri_is_not_the_uri(self):
        record = CitationRecord([Agent("Doe", "J.")], "2020-01-01", "Example Ontology",
                                Iri("http://ex.org/o"), version="1.0", formats=["turtle"])
        line = render_canonical(record).replace("http://ex.org/o", "http://ex.org/ontology")
        result = check_publication_side(line, record)
        assert not result.found
        assert result.matched_line == line
        assert 0.6 < result.similarity < 1.0

    @pytest.mark.parametrize("uri,version,revision,found", [
        ("http://example.org/2014/o", None, None, False),
        ("http://example.org/o", "1", "20140328", False),
        ("http://example.org/o", "2014", None, True),
        ("http://example.org/o", "v2014b", None, True),
    ])
    def test_year_counts_as_four_digits_outside_the_uri(self, uri, version, revision, found):
        record = CitationRecord([Agent("Doe", "J.")], "2014-05-01", "Example Ontology",
                                Iri(uri), version=version, revision=revision, formats=["turtle"])
        line = render_canonical(record).replace("(2014-05-01)", "(2019-05-01)")
        result = check_publication_side(line, record)
        assert result.similarity >= 0.6
        assert result.found is found
        assert check_publication_side(line.replace("2019", "2014"), record).found

    def test_not_found_reports_the_line_whitespace_normalized(self):
        result = check_publication_side("Ciccarese,\t P.  (2020).\u3000A\xa0paper.",
                                        pav_record())
        assert not result.found
        assert result.matched_line == "Ciccarese, P. (2020). A paper."

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -0.1, 1.1])
    def test_threshold_outside_zero_to_one_rejected(self, threshold):
        with pytest.raises(OntociteError, match="threshold"):
            check_publication_side(PAV_CITATION, pav_record(), threshold=threshold)

    @pytest.mark.parametrize("threshold", [0, 1.0])
    def test_threshold_bounds_accepted(self, threshold):
        assert check_publication_side(PAV_CITATION, pav_record(), threshold=threshold).found

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


def _gated(line, uri, year):
    """The reference gates: a token is the URI, bare or stripped of
    brackets and punctuation, and another token holds the year as 4 digits
    with no digit on either side."""
    digits = set(string.digits)
    uri_tokens = [t == uri or t.strip("<>()[]{}\"';,.") == uri for t in line.split()]
    return any(uri_tokens) and any(
        token[i:i + 4] == year and token[i - 1:i] not in digits and token[i + 4:i + 5] not in digits
        for token, is_uri in zip(line.split(), uri_tokens) if not is_uri
        for i in range(len(token)))


def _one_pass(lines, record, threshold):
    """The reference scorer: one loop that normalizes and scores every
    line, as (found, similarity, matched_line)."""
    canonical = render_canonical(record)
    canonical_tokens = _similarity_tokens(canonical)
    year = record.date[:4]
    best_similarity, best_line = 0.0, None
    found_similarity, found_line = 0.0, None
    for raw_line in lines:
        line = " ".join(raw_line.split())
        if line == canonical:
            return True, 1.0, line
        similarity = _jaccard(_similarity_tokens(line), canonical_tokens)
        if similarity > best_similarity:
            best_similarity, best_line = similarity, line
        if (similarity >= threshold and similarity > found_similarity
                and _gated(line, record.uri.value, year)):
            found_similarity, found_line = similarity, line
    if found_line is not None:
        return True, found_similarity, found_line
    return False, best_similarity, best_line


# Whitespace that str.split breaks on but str.splitlines does not.
_SPACE_RUNS = st.text(alphabet=" \t\x1f\xa0\u1680\u2000\u202f\u3000", min_size=1, max_size=3)


@st.composite
def _candidate_lines(draw, record):
    """A line of a reference list: random text, the canonical rendering with
    any spacing, or a house-styled variant of it (tokens dropped or
    reordered, the URI bracketed, inside a longer URI or replaced, the
    year changed, a random piece added)."""
    kind = draw(st.sampled_from(["text", "canonical", "styled", "styled"]))
    if kind == "text":
        return draw(_TOKEN_LINES)
    canonical = render_canonical(record)
    tokens = canonical.split(" ")
    if kind == "styled":
        uri = record.uri.value
        dropped = draw(st.sets(st.integers(0, len(tokens) - 1), max_size=2))
        tokens = [t for i, t in enumerate(tokens) if i not in dropped]
        if draw(st.booleans()):
            tokens = draw(st.permutations(tokens))
        shown = draw(st.sampled_from([uri, f"<{uri}>", f"({uri}).", uri + "ology", uri + "/x",
                                      "x" + uri, "http://other.org/o"]))
        tokens = [shown if t == uri else t for t in tokens]
        if draw(st.booleans()):
            tokens = [t.replace(record.date[:4], "1999") for t in tokens]
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(0, len(tokens))), draw(_TOKEN_LINES))
    return draw(_SPACE_RUNS).join(tokens)


@st.composite
def _reference_lists(draw):
    record = draw(citation_records())
    lines = draw(st.lists(_candidate_lines(record), max_size=8))
    breaks = draw(st.lists(st.sampled_from(["\n", "\n\n", "\r\n", "\n \n"]),
                           min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = breaks[0] * draw(st.booleans()) + "".join(
        line + brk for line, brk in zip(lines, breaks[1:]))
    return record, text


class TestTwoPasses:
    @given(case=_reference_lists(),
           threshold=st.one_of(st.sampled_from([0.0, 0.6, 1.0]), st.floats(0.0, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_one_pass_reference(self, case, threshold):
        record, text = case
        result = check_publication_side(text, record, threshold)
        expected = _one_pass(_reference_lines(text), record, threshold)
        assert (result.found, result.similarity, result.matched_line) == expected
