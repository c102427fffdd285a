import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontocite import (
    Agent,
    CitationRecordError,
    Diagnostic,
    Iri,
    OntociteError,
    normalize_person_name,
    parse_canonical,
    render_canonical,
    validate_citation_string,
    validate_record,
)
from ontocite.citation import is_acronym
from ontocite.principles import DIAGNOSTIC_CODES, E_PARSE

from conftest import PAV_CITATION, SAMPLE_CITATIONS, pav_record
from strategies import acronym_texts, citation_records, mutations


def base_fields():
    """A complete, diagnostics-free field mapping (the worked example)."""
    return {
        "creators": [
            Agent(surname="Ciccarese", initials="P."),
            Agent(surname="Soiland-Reyes", initials="S."),
        ],
        "date": "2014-08-28",
        "acronym": "PAV",
        "full_name": "Provenance, Authoring and Versioning",
        "version": "2.3.1",
        "uri": Iri("http://purl.org/pav/"),
        "formats": ["rdf/xml"],
    }


def without(fields, key):
    out = dict(fields)
    del out[key]
    return out


def with_value(fields, key, value):
    out = dict(fields)
    out[key] = value
    return out


# One fixture per diagnostic code: each must yield exactly its own code.
SINGLE_DEFECT_FIXTURES = [
    ("E-CREATOR-MISSING", lambda f: without(f, "creators")),
    ("E-DATE-MISSING", lambda f: without(f, "date")),
    ("E-DATE-FORMAT", lambda f: with_value(f, "date", "2014/08/28")),
    ("E-TITLE-MISSING", lambda f: without(f, "full_name")),
    ("E-URI-MISSING", lambda f: without(f, "uri")),
    ("E-URI-RELATIVE", lambda f: with_value(f, "uri", "relative/path.owl")),
    ("W-VERSION-MISSING", lambda f: without(f, "version")),
    ("W-FORMAT-MISSING", lambda f: with_value(f, "formats", [])),
    ("W-FORMAT-UNKNOWN", lambda f: with_value(f, "formats", ["xml"])),
    ("W-ACRONYM-COLON", lambda f: with_value(f, "acronym", "PA:V")),
    ("W-NAME-FORM", lambda f: with_value(f, "creators", [Agent(surname="Paolo Ciccarese")])),
]


class TestValidateRecord:
    def test_complete_record_is_clean(self):
        assert validate_record(pav_record()) == []
        assert validate_record(base_fields()) == []

    def test_pipeline_output_passes_its_own_validator(self, pav_graph):
        from ontocite import build_record, derive_acronym, extract_metadata

        meta = extract_metadata(pav_graph, fmt="rdf/xml")
        record = build_record(meta, derive_acronym(meta))
        assert validate_record(record) == []

    @pytest.mark.parametrize("code,mutate", SINGLE_DEFECT_FIXTURES,
                             ids=[code for code, _ in SINGLE_DEFECT_FIXTURES])
    def test_single_defect_yields_exactly_one_code(self, code, mutate):
        diagnostics = validate_record(mutate(base_fields()))
        assert [d.code for d in diagnostics] == [code]

    @pytest.mark.parametrize("acronym", ["ABCDEFGHIJK", " PAV", "PAV ", "PA:V"])
    def test_acronym_the_grammar_rejects_is_flagged(self, acronym):
        (diagnostic,) = validate_record(with_value(base_fields(), "acronym", acronym))
        assert (diagnostic.code, diagnostic.field) == ("W-ACRONYM-COLON", "acronym")
        assert diagnostic.message == (
            f"acronym {acronym!r} is not 1 to 10 characters without ':' "
            "and without whitespace at either end")

    @settings(max_examples=300)
    @given(record=citation_records(acronyms=acronym_texts))
    def test_acronym_reads_back_exactly_when_it_is_one(self, record):
        codes = [d.code for d in validate_record(record)]
        read_back = parse_canonical(render_canonical(record)).acronym
        assert (read_back == record.acronym) is is_acronym(record.acronym)
        assert ("W-ACRONYM-COLON" in codes) is not is_acronym(record.acronym)

    def test_uri_only_record(self):
        diagnostics = validate_record({"uri": "http://purl.org/pav/"})
        codes = {d.code for d in diagnostics}
        assert "E-URI-ONLY" in codes
        assert {"E-CREATOR-MISSING", "E-DATE-MISSING", "E-TITLE-MISSING"} <= codes

    def test_version_removed_single_warning(self):
        diagnostics = validate_record(without(base_fields(), "version"))
        assert [d.code for d in diagnostics] == ["W-VERSION-MISSING"]

    @pytest.mark.parametrize(
        "bad_date", ["2014-13-01", "2014-02-30", "2015-02-29", "14-08-28", "2014-8-28",
                     "2014-08-28\n", "２０１４-０８-２８"]
    )
    def test_calendar_validity(self, bad_date):
        diagnostics = validate_record(with_value(base_fields(), "date", bad_date))
        assert [d.code for d in diagnostics] == ["E-DATE-FORMAT"]

    def test_leap_year_accepted(self):
        assert validate_record(with_value(base_fields(), "date", "2016-02-29")) == []

    def test_sorted_by_code(self):
        diagnostics = validate_record({"uri": "http://purl.org/pav/"})
        codes = [d.code for d in diagnostics]
        assert codes == sorted(codes)

    def test_fields_name_actual_defect(self):
        for code, mutate in SINGLE_DEFECT_FIXTURES:
            (diagnostic,) = validate_record(mutate(base_fields()))
            assert diagnostic.field is not None

    def test_agent_with_bad_initials_flagged(self):
        fields = with_value(
            base_fields(), "creators", [Agent(surname="Doe", initials="Jay")]
        )
        assert [d.code for d in validate_record(fields)] == ["W-NAME-FORM"]

    @pytest.mark.parametrize("creator,flagged", [
        (Agent(surname="Paolo Ciccarese"), True),
        (Agent(surname="Doe,J."), True),
        (Agent(surname=""), True),
        (Agent(surname="Plato"), False),
        (Agent(surname="Gene Ontology Consortium", organization=True), False),
        (Agent(surname="", initials="J."), True),
        (Agent(surname="van der Berg", initials="J."), False),
        (Agent(surname="Doe", initials="j."), True),
        (Agent(surname="Doe", initials="J. R."), False),
        (Agent(surname="Doe", initials="J.R."), True),
        pytest.param(Agent(surname="Doe", initials="J."), False, id="Doe, J.-False"),
        pytest.param(Agent(surname="Doe", initials="Jay"), True, id="Doe, Jay-True"),
    ])
    def test_each_creator_form_is_read_as_an_agent(self, creator, flagged):
        fields = with_value(base_fields(), "creators", [creator])
        assert [d.code for d in validate_record(fields)] == (["W-NAME-FORM"] if flagged else [])

    def test_a_creator_that_is_no_agent_is_a_record_error(self):
        fields = with_value(base_fields(), "creators", [Agent(surname="Plato"), "Doe, J."])
        with pytest.raises(CitationRecordError) as exc:
            validate_record(fields)
        assert exc.value.field == "creators[1]"
        assert str(exc.value) == "citation record 'creators[1]' is not an Agent: 'Doe, J.'"

    @pytest.mark.parametrize("key, value, field", [
        ("formats", "turtle", "formats"),
        ("formats", ["turtle", 5], "formats[1]"),
        ("date", 20200101, "date"),
        ("acronym", 5, "acronym"),
        ("full_name", 5, "full_name"),
        ("version", 2.3, "version"),
        ("uri", 5, "uri"),
        ("creators", 5, "creators"),
    ])
    def test_a_field_of_the_wrong_type_is_a_record_error(self, key, value, field):
        with pytest.raises(CitationRecordError) as exc:
            validate_record(with_value(base_fields(), key, value))
        assert exc.value.field == field

    @pytest.mark.parametrize("name", ["ßtraße Müller", "ﬁona Smith", "小明 王", "Özgür Müller"])
    def test_normalized_names_pass_the_name_form_rule(self, name):
        fields = with_value(base_fields(), "creators", [normalize_person_name(name)])
        assert validate_record(fields) == []

    def test_monotonicity_adding_fields_never_adds_errors(self):
        partial = {"uri": Iri("http://purl.org/pav/")}
        complete = base_fields()
        previous = {d.code for d in validate_record(partial) if d.severity == "error"}
        for key in ("creators", "date", "full_name", "version", "formats", "acronym"):
            partial[key] = complete[key]
            current = {d.code for d in validate_record(partial) if d.severity == "error"}
            assert current <= previous
            previous = current

    @given(record=citation_records())
    @settings(max_examples=200)
    def test_generated_records_have_no_missing_field_errors(self, record):
        codes = {d.code for d in validate_record(record)}
        assert not codes & {
            "E-CREATOR-MISSING", "E-DATE-MISSING", "E-TITLE-MISSING",
            "E-URI-MISSING", "E-URI-RELATIVE", "E-DATE-FORMAT",
        }


class TestValidateCitationString:
    def test_complete_citation_clean(self):
        assert validate_citation_string(PAV_CITATION) == []

    def test_bare_uri_is_mere_link(self):
        diagnostics = validate_citation_string("http://purl.org/pav/")
        assert [d.code for d in diagnostics] == ["E-URI-ONLY"]

    def test_bare_uri_in_angle_brackets(self):
        diagnostics = validate_citation_string("<http://purl.org/pav/>")
        assert [d.code for d in diagnostics] == ["E-URI-ONLY"]

    def test_garbage_is_single_parse_failure(self):
        diagnostics = validate_citation_string("garbage")
        assert len(diagnostics) == 1
        assert diagnostics[0].code == E_PARSE
        assert diagnostics[0].severity == "error"

    def test_parseable_but_incomplete(self):
        diagnostics = validate_citation_string(
            "Doe, J. (2020-01-01). Example Ontology. http://example.org/onto"
        )
        codes = [d.code for d in diagnostics]
        assert codes == ["W-FORMAT-MISSING", "W-VERSION-MISSING"]

    @given(text=st.one_of(st.text(), mutations(SAMPLE_CITATIONS)))
    @settings(max_examples=500)
    def test_arbitrary_text_gives_diagnostics_or_an_ontocite_error(self, text):
        try:
            diagnostics = validate_citation_string(text)
        except OntociteError:
            return
        assert all(isinstance(d, Diagnostic) for d in diagnostics)

    def test_code_vocabulary_is_frozen(self):
        assert DIAGNOSTIC_CODES == (
            "E-CREATOR-MISSING",
            "E-DATE-MISSING",
            "E-DATE-FORMAT",
            "E-TITLE-MISSING",
            "E-URI-MISSING",
            "E-URI-RELATIVE",
            "E-URI-ONLY",
            "W-VERSION-MISSING",
            "W-FORMAT-MISSING",
            "W-FORMAT-UNKNOWN",
            "W-ACRONYM-COLON",
            "W-NAME-FORM",
        )
