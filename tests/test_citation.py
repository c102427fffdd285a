import json
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontocite import (
    Agent,
    CitationJsonError,
    CitationParseError,
    CitationRecord,
    CitationRecordError,
    Iri,
    MissingFieldError,
    OntociteError,
    OntologyMetadata,
    RdfModelError,
    build_record,
    derive_acronym,
    extract_metadata,
    parse_canonical,
    parse_turtle,
    record_from_json,
    render_bibtex,
    render_canonical,
    render_json,
    validate_citation_string,
    validate_record,
)
from ontocite import citation

from conftest import PAV_CITATION, SAMPLE_CITATIONS, pav_record
from differential import load_gen
from strategies import agents, citation_records, json_records, mutations

# perfbench/gen.py, whose renderers share no code with ontocite's: the oracle
GEN = load_gen()

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "citation.schema.json").read_text("utf-8")
)


def _parse_bibtex_fields(entry: str) -> dict:
    """Independent minimal BibTeX reader used as the import oracle: it
    shares no code with the renderer."""
    m = re.match(r"@(\w+)\{([^,]+),\n(.*)\n\}\n$", entry, re.DOTALL)
    assert m, f"not a BibTeX entry: {entry!r}"
    fields = {}
    for line in m.group(3).split(",\n"):
        name, _, value = line.strip().partition(" = ")
        assert value.startswith("{") and value.endswith("}")
        fields[name] = value[1:-1]
    return {"type": m.group(1), "key": m.group(2), "fields": fields}


def gen_record(record: CitationRecord) -> dict:
    """``record`` as gen.py's renderers take it: a dict whose creators are
    ``(surname, initials, organization)`` tuples and whose uri is a string."""
    return {**{name: getattr(record, name) for name in record._fields},
            "creators": [(a.surname, a.initials, a.organization) for a in record.creators],
            "uri": record.uri.value}


class TestBuildRecord:
    def test_pav_metadata(self, pav_graph):
        meta = extract_metadata(pav_graph, fmt="rdf/xml")
        record = build_record(meta, derive_acronym(meta))
        assert record == pav_record()

    @pytest.mark.parametrize("missing, field", [
        ("creators", "creator"), ("date", "date"), ("title", "title"),
    ], ids=["creator", "date", "title"])
    def test_missing_hard_field(self, missing, field):
        fields = {"ontology_iri": Iri("http://x"), "title": "T",
                  "creators": (Agent(surname="Doe", initials="J."),), "date": "2020-01-01"}
        del fields[missing]
        with pytest.raises(MissingFieldError) as exc:
            build_record(OntologyMetadata(**fields), (None, "T"))
        assert exc.value.field == field

    def test_organization_only_creator(self):
        meta = OntologyMetadata(
            ontology_iri=Iri("http://x"),
            title="T",
            date="2020-01-01",
            creators=(Agent(surname="Gene Ontology Consortium", organization=True),),
        )
        record = build_record(meta, (None, "T"))
        assert record.creators[0].organization

    def test_revision_dropped_without_version(self):
        meta = OntologyMetadata(
            ontology_iri=Iri("http://x"),
            title="T",
            date="2020-01-01",
            creators=(Agent(surname="Doe"),),
            revision="2",
        )
        assert build_record(meta, (None, "T")).revision is None


class TestRenderCanonical:
    def test_pav_byte_exact(self):
        assert render_canonical(pav_record()) == PAV_CITATION

    def test_optional_elements_omitted(self):
        record = CitationRecord(
            creators=(Agent(surname="Doe", initials="J."),),
            date="2020-01-01",
            full_name="Example Ontology",
            uri=Iri("http://example.org/onto"),
        )
        assert (
            render_canonical(record)
            == "Doe, J. (2020-01-01). Example Ontology. http://example.org/onto"
        )

    def test_revision_in_parentheses(self):
        record = CitationRecord(
            creators=(Agent(surname="Doe", initials="J."),),
            date="2020-01-01",
            full_name="Example",
            uri=Iri("http://example.org/x"),
            version="1.0",
            revision="2",
        )
        assert "1.0(2)." in render_canonical(record)

    def test_organization_rendered_verbatim(self):
        record = CitationRecord(
            creators=(Agent(surname="Gene Ontology Consortium", organization=True),),
            date="2024-06-01",
            full_name="Gene Ontology",
            uri=Iri("http://example.org/go/"),
        )
        assert render_canonical(record).startswith("Gene Ontology Consortium (2024-06-01).")

    @given(record=citation_records())
    @settings(max_examples=300)
    def test_creator_separator_count(self, record):
        rendered = render_canonical(record)
        creators_section = rendered[: rendered.index(f" ({record.date})")]
        n = len(record.creators)
        # the last separator is " and "; the rest are creator-joining ", "
        assert creators_section.count(" and ") >= (1 if n > 1 else 0)
        if n > 1:
            head = creators_section.rsplit(" and ", 1)[0]
            person_commas = sum(1 for a in record.creators[:-1] if a.initials)
            assert head.count(", ") == (n - 2) + person_commas


# Strings with two defects, and the (position, element, message) of the one
# that parse_canonical reports: the date, the creators, nothing after the
# date, a lone surrogate, the URI, then the title's shape, in that order.
ERROR_ORDER = [
    # no date element, a lone surrogate
    ("Doe, J. 2020. T\ud800. http://example.org/o", 0, "date",
     "no '(YYYY-MM-DD).' element found"),
    ("Do\udcffe (2020-01-01) T. http://example.org/o", 0, "date",
     "no '(YYYY-MM-DD).' element found"),
    # a date element inside a creator, a relative URI
    ("Doe (2020-01-01).x, J. (2021-01-01). T. rel/o", 0, "creators",
     "creator names may not contain a date element"),
    ("(2020-01-01).x and Doe (2021-01-01). T. http://example.org/o", 0, "creators",
     "creator names may not contain a date element"),
    # no creators, a lone surrogate and a relative URI
    ("(2020-01-01). T\ud800. rel/o", 0, "creators", "no creators before the date"),
    # an empty creator cell, a relative URI, nothing after the date or a lone surrogate
    ("Doe, , J. (2020-01-01). T. rel/o", 0, "creators", "empty creator name"),
    ("Doe, , J. (2020-01-01).", 0, "creators", "empty creator name"),
    ("Doe and , J. (2020-01-01). T\ud800. http://example.org/o", 0, "creators",
     "empty creator name"),
    # nothing after the date, a lone surrogate
    ("Do\ud800e, J. (2020-01-01).", 22, "title", "nothing follows the date"),
    # no "." or "," before the URI, and a lone surrogate or a relative URI
    ("Doe, J. (2020-01-01). T\ud800 rel/o", 23, "title", "lone surrogate U+D800"),
    ("Doe, J. (2020-01-01). Title rel/o", 28, "source", "IRI lacks a scheme: 'rel/o'"),
    ("Doe, J. (2020-01-01). Title <http://example.org/o", 28, "source",
     "IRI lacks a scheme: '<http://example.org/o'"),
    # no title, a relative URI
    ("Doe, J. (2020-01-01). rel/o", 22, "source", "IRI lacks a scheme: 'rel/o'"),
    # an empty title, a URI in angle brackets, relative, or a lone surrogate after it
    ("Doe, J. (2020-01-01). . <http://example.org/o>", 21, "title", "empty title"),
    ("Doe, J. (2020-01-01). . <rel/o>", 24, "source", "IRI lacks a scheme: 'rel/o'"),
    ("Doe, J. (2020-01-01). . <http://example.org/o> [tur\udcfftle]", 51, "formats",
     "lone surrogate U+DCFF"),
    # an unclosed "<", formats after the last " [" and the URI token before them
    ("Doe, J. (2020-01-01). T. <http://example.org/o [turtle]", 25, "source",
     "IRI lacks a scheme: '<http://example.org/o'"),
    ("Doe, J. (2020-01-01). T. http://example.org/o [turtle] [obo]", 46, "source",
     "IRI lacks a scheme: '[turtle]'"),
]


def _pav_with(**changes) -> CitationRecord:
    base = pav_record()
    return CitationRecord(**{**{name: getattr(base, name) for name in base._fields}, **changes})


class TestRecordErrors:
    """A record that cannot be built, or that a renderer cannot render,
    raises CitationRecordError, which names the field."""

    @pytest.mark.parametrize("uri", ["http://ex.org/o", None, b"http://a"])
    def test_uri_that_is_not_an_iri(self, uri):
        with pytest.raises(CitationRecordError) as exc:
            CitationRecord([Agent("Doe", "J.")], "2020-01-01", "T", uri)
        assert exc.value.field == "uri"
        assert str(exc.value) == f"citation record 'uri' is not an Iri: {uri!r}"

    @pytest.mark.parametrize("render,changes,field,message", [
        (render_canonical, {"creators": ()}, "creators", "citation record 'creators' is empty"),
        (render_bibtex, {"creators": ()}, "creators", "citation record 'creators' is empty"),
        (render_bibtex, {"date": "2020"}, "date",
         "citation record 'date' is not shaped YYYY-MM-DD: '2020'"),
        (render_bibtex, {"date": None}, "date", "citation record 'date' is not a string: None"),
        (render_canonical, {"date": None}, "date", "citation record 'date' is not a string: None"),
        (render_json, {"date": None}, "date", "citation record 'date' is not a string: None"),
        (render_canonical, {"full_name": None}, "full_name",
         "citation record 'full_name' is not a string: None"),
        (render_bibtex, {"full_name": None}, "full_name",
         "citation record 'full_name' is not a string: None"),
        (render_json, {"full_name": None}, "full_name",
         "citation record 'full_name' is not a string: None"),
    ], ids=["canonical-no-creators", "bibtex-no-creators", "bibtex-year-only", "bibtex-no-date",
            "canonical-no-date", "json-no-date", "canonical-no-title",
            "bibtex-no-title", "json-no-title"])
    def test_unrenderable_field(self, render, changes, field, message):
        record = _pav_with(**changes)
        with pytest.raises(CitationRecordError) as exc:
            render(record)
        assert exc.value.field == field
        assert str(exc.value) == message
        assert isinstance(exc.value, OntociteError) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("render", [render_canonical, render_bibtex, render_json],
                             ids=["canonical", "bibtex", "json"])
    @pytest.mark.parametrize("changes,field,message", [
        ({"creators": (Agent("Doe", "J."), "Roe, R.")}, "creators[1]",
         "is not an Agent: 'Roe, R.'"),
        ({"formats": ("turtle", 5)}, "formats[1]", "is not a string: 5"),
        ({"acronym": 5}, "acronym", "is not a string or None: 5"),
        ({"version": 5}, "version", "is not a string or None: 5"),
        ({"revision": 5}, "revision", "is not a string or None: 5"),
    ], ids=["str-creator", "int-format", "int-acronym", "int-version", "int-revision"])
    def test_wrongly_typed_field(self, render, changes, field, message):
        """Whichever style is asked for, a mistyped field ends in a
        CitationRecordError naming it: the record is refused when it is built,
        so no renderer meets it."""
        with pytest.raises(CitationRecordError) as exc:
            render(_pav_with(**changes))
        assert (exc.value.field, str(exc.value)) == (field, f"citation record {field!r} {message}")

    @pytest.mark.parametrize("build,field,message", [
        (lambda: _pav_with(date=b"2020-01-01"), "date",
         "is not a string or None: b'2020-01-01'"),
        (lambda: _pav_with(full_name=5), "full_name", "is not a string or None: 5"),
        (lambda: _pav_with(creators=5), "creators", "is not a list or tuple: 5"),
        (lambda: _pav_with(creators=None), "creators", "is not a list or tuple: None"),
        (lambda: _pav_with(creators={Agent("Doe")}), "creators",
         "is not a list or tuple: {Agent(surname='Doe', initials=None, organization=False)}"),
        (lambda: _pav_with(formats="turtle"), "formats", "is not a list or tuple: 'turtle'"),
        (lambda: Agent(None), "surname", "is not a string: None"),
        (lambda: Agent(5), "surname", "is not a string: 5"),
        (lambda: Agent("Doe", 5), "initials", "is not a string or None: 5"),
        (lambda: Agent("Doe", "J.", "yes"), "organization", "is not a boolean: 'yes'"),
        (lambda: Agent("Doe", "J.", None), "organization", "is not a boolean: None"),
    ], ids=["bytes-date", "int-full-name", "int-creators", "no-creators", "set-creators",
            "str-formats", "no-surname", "int-surname", "int-initials", "str-organization",
            "no-organization"])
    def test_refused_when_built(self, build, field, message):
        """A field of the wrong type is refused when the record or the Agent
        is built."""
        with pytest.raises(CitationRecordError) as exc:
            build()
        assert (exc.value.field, str(exc.value)) == (field, f"citation record {field!r} {message}")


# Values of any type, drawn in place of a well-typed argument.
_ANY_VALUE = st.one_of(st.none(), st.integers(), st.binary(max_size=4), st.text(max_size=6),
                       st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=4),
                                          agents), min_size=1, max_size=3))


class TestEveryCallEndsInAValueOrARecordError:
    @given(data=st.data())
    @settings(max_examples=300)
    def test_any_arguments(self, data):
        """Agent, CitationRecord, the renderers and validate_record, given
        arguments each well typed or of any type, end in a value or a
        CitationRecordError; a record that was built, with the drawn Agent
        among its creators when that was built, renders in all three styles
        unless it lacks creators, a date or a full_name."""
        # of the 11 arguments (3 of the Agent, 8 of the record), at most two
        # are drawn from _ANY_VALUE, so that most records hold one defect
        mistyped = data.draw(st.sets(st.integers(0, 10), max_size=2))
        position = iter(range(11))

        def draw(well_typed):
            return data.draw(_ANY_VALUE if next(position) in mistyped else well_typed)

        def call(function, *args):
            try:
                return function(*args)
            except CitationRecordError as exc:
                return exc

        agent = call(Agent, draw(st.text()), draw(st.none() | st.text()), draw(st.booleans()))
        creators = draw(st.lists(agents, max_size=3))
        if isinstance(agent, Agent) and isinstance(creators, list):
            creators.append(agent)
        # a None date or full_name, which a renderer refuses, comes from _ANY_VALUE
        text, optional = st.text(max_size=12), st.none() | st.text(max_size=12)
        fields = [creators, draw(text), draw(text), draw(st.just(Iri("http://example.org/o"))),
                  draw(optional), draw(optional), draw(optional),
                  draw(st.lists(st.text(max_size=6), max_size=3))]
        call(validate_record, dict(zip(CitationRecord._fields, fields)))
        record = call(CitationRecord, *fields)
        if isinstance(record, CitationRecord):
            call(validate_record, record)
            for render in (render_canonical, render_bibtex, render_json):
                outcome = call(render, record)
                assert isinstance(outcome, str) or outcome.field in ("creators", "date",
                                                                     "full_name")


class TestParseCanonical:
    @pytest.mark.parametrize("text,position,expected,message", ERROR_ORDER)
    def test_first_error_is_reported(self, text, position, expected, message):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical(text)
        assert (exc.value.position, exc.value.expected, exc.value.message) == (
            position, expected, message)

    def test_pav_string(self):
        assert parse_canonical(PAV_CITATION) == pav_record()

    def test_comma_and_angle_bracket_tolerance(self):
        variant = (
            "Ciccarese, P. and Soiland-Reyes, S. (2014-08-28). "
            "PAV: Provenance, Authoring and Versioning. 2.3.1, "
            "<http://purl.org/pav/> [rdf/xml]"
        )
        assert parse_canonical(variant) == pav_record()

    def test_surrounding_whitespace(self):
        assert parse_canonical(f"  {PAV_CITATION}\n") == pav_record()

    def test_missing_date_names_element(self):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical("Nonsense without a date")
        assert exc.value.expected == "date"

    def test_missing_creators(self):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical("(2020-01-01). Title. http://example.org/x")
        assert exc.value.expected == "creators"

    def test_missing_title(self):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical("Doe, J. (2020-01-01). http://example.org/x")
        assert exc.value.expected == "title"

    def test_bad_uri_names_source(self):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical("Doe, J. (2020-01-01). Title. not-absolute")
        assert exc.value.expected == "source"

    @pytest.mark.parametrize("text,expected,message", [
        ("Doe, J., , Roe, R. (2020-01-01). T. http://example.org/o",
         "creators", "empty creator name"),
        ("Doe (2020-01-01).x (2021-01-01). T. http://example.org/o",
         "creators", "may not contain a date element"),
        ("Doe, J. (2020-01-01).", "title", "nothing follows the date"),
        ("Doe, J. (2020-01-01). . http://example.org/o", "title", "empty title"),
    ])
    def test_error_names_element_and_reason(self, text, expected, message):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical(text)
        assert exc.value.expected == expected
        assert message in exc.value.message

    @pytest.mark.parametrize("text,expected,position", [
        ("Do\udcffe, J. (2020-01-01). T. http://example.org/x", "creators", 2),
        ("Doe, J. (2020-01-01). T\ud800. 1.\udfff. http://example.org/x", "title", 23),
        ("Doe, J. (2020-01-01). T. <http://example.org/\udcff> [\ud800]", "source", 45),
        ("Doe, J. (2020-01-01). T. http://example.org/x [turtle, \udcff]", "formats", 55),
    ])
    def test_lone_surrogate_fails_its_element(self, text, expected, position):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical(text)
        assert (exc.value.expected, exc.value.position) == (expected, position)
        # validate prints the message, so it names the code point only
        assert exc.value.message == f"lone surrogate U+{ord(text[position]):04X}"

    @pytest.mark.parametrize("title, acronym, full_name", [
        ("ab:CD - Foo", None, "ab:CD - Foo"),
        ("ab:CD: Foo", None, "ab:CD: Foo"),
        ("Gene Ontology: the resource", None, "Gene Ontology: the resource"),
        ("An ontology of time:zones", None, "An ontology of time:zones"),
        ("ABCDEFGHIJKLMNOP: Title", None, "ABCDEFGHIJKLMNOP: Title"),
        ("ABCDEFGHIJ: Title", "ABCDEFGHIJ", "Title"),
        ("GO Plus: a: b", "GO Plus", "a: b"),
        ("PAV : Title", None, "PAV : Title"),
    ])
    def test_acronym_only_before_the_first_colon_space(self, title, acronym, full_name):
        record = parse_canonical(f"Doe, J. (2020-01-01). {title}. http://example.org/o")
        assert (record.acronym, record.full_name) == (acronym, full_name)

    def test_multi_word_creator_without_initials_is_organization(self):
        record = parse_canonical(
            "Gene Ontology Consortium (2024-06-01). Gene Ontology. http://example.org/go/"
        )
        assert record.creators == (
            Agent(surname="Gene Ontology Consortium", organization=True),
        )

    def test_single_word_creator_is_mononym(self):
        record = parse_canonical("Plato (0380-01-01). Forms. http://example.org/forms")
        assert record.creators == (Agent(surname="Plato"),)

    @pytest.mark.parametrize("surname,initials", [
        ("Müller", "Ö."), ("王", "小."), ("Ivanov", "Я. А."), ("Papadopoulos", "Ω."),
    ])
    def test_initials_of_any_script(self, surname, initials):
        record = parse_canonical(f"{surname}, {initials} (2020-01-01). Title. http://example.org/x")
        assert record.creators == (Agent(surname=surname, initials=initials),)

    # version and revision characters are ver-char of docs/grammar.abnf:
    # printable ASCII other than "(" and ")"
    @pytest.mark.parametrize("element,version", [
        ("1.0", "1.0"), ("１.０", None), ("v٢", None), ("1.0é", None), ("1.0(ré)", None),
        ("!1", "!1"), ("1'", "1'"), ("*1", "*1"), ("1~", "1~"), ("1.0(r~)", "1.0"),
    ])
    def test_version_needs_an_ascii_digit(self, element, version):
        record = parse_canonical(f"Doe, J. (2020-01-01). Title. {element}. http://example.org/x")
        assert record.version == version
        assert record.full_name == ("Title" if version else f"Title. {element}")

    def test_date_with_non_ascii_digits_is_no_date(self):
        with pytest.raises(CitationParseError) as exc:
            parse_canonical("Doe, J. (２０２０-０１-０１). Title. http://example.org/x")
        assert exc.value.expected == "date"

    @given(text=st.one_of(st.text(), mutations(SAMPLE_CITATIONS)))
    @settings(max_examples=500)
    def test_arbitrary_text_is_a_record_or_an_ontocite_error(self, text):
        try:
            assert isinstance(parse_canonical(text), CitationRecord)
        except OntociteError:
            pass

    def test_an_unclosed_bracket_run_parses_in_linear_time(self):
        # the formats are looked for only in a string that ends in "]"
        text = "Doe, J. (2020-01-01). T. http://example.org/o" + " [a" * 50_000
        start = time.perf_counter()
        with pytest.raises(CitationParseError, match="lacks a scheme"):
            parse_canonical(text)
        assert time.perf_counter() - start < 2.0

    def test_duplicate_formats_collapse(self):
        record = parse_canonical(
            "Doe, J. (2020-01-01). Title. http://example.org/x [turtle, turtle]"
        )
        assert record.formats == ("turtle",)

    @given(record=citation_records())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, record):
        assert parse_canonical(render_canonical(record)) == record

    @given(
        record=citation_records(),
        angle=st.booleans(),
        comma=st.booleans(),
        pad=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_accepted_strings_reach_normal_form_in_one_render(
        self, record, angle, comma, pad
    ):
        s = render_canonical(record)
        uri = record.uri.value
        if angle:
            s = s.replace(f" {uri}", f" <{uri}>")
        if comma and record.version:
            s = s.replace(f". {uri}", f", {uri}").replace(f". <{uri}>", f", <{uri}>")
        if pad:
            s = f"  {s} \n"
        first = parse_canonical(s)
        normal_form = render_canonical(first)
        assert parse_canonical(normal_form) == first


def _outcome(parse, text):
    """A parse's record, or the (position, element, message) of its error."""
    try:
        return parse(text)
    except CitationParseError as exc:
        return exc.position, exc.expected, exc.message


class TestParseMemo:
    """parse_canonical keeps the records of the last 256 strings that parsed."""

    def test_a_second_call_is_a_cache_hit_with_an_equal_record(self):
        text = "Memo, A. (2020-01-01). Second Call. http://example.org/memo/second"
        first = parse_canonical(text)
        hits = parse_canonical.cache_info().hits
        assert parse_canonical(text) == first
        assert parse_canonical.cache_info().hits == hits + 1

    def test_validate_then_parse_runs_the_citation_regex_once(self, monkeypatch):
        match = citation._citation()
        calls = []

        def counting(text):
            calls.append(text)
            return match(text)

        monkeypatch.setattr(citation, "_citation", lambda: counting)
        text = ("Memo, A. (2020-01-01). Validated First. 1.0. http://example.org/memo/validated"
                " [turtle]")
        assert validate_citation_string(text) == []
        assert parse_canonical(text).full_name == "Validated First"
        assert calls == [text]

    @pytest.mark.parametrize("text,position,expected,message", ERROR_ORDER[::4])
    def test_a_failure_is_raised_anew_and_never_kept(self, text, position, expected, message):
        size = parse_canonical.cache_info().currsize
        for _ in range(2):
            with pytest.raises(CitationParseError) as exc:
                parse_canonical(text)
            assert (exc.value.position, exc.value.expected, exc.value.message) == (
                position, expected, message)
        assert parse_canonical.cache_info().currsize == size

    def test_the_memo_holds_256_records(self):
        for i in range(257):
            parse_canonical(f"Memo, A. (2020-01-01). Bound {i}. http://example.org/memo/{i}")
        assert parse_canonical.cache_info().currsize == 256

    @given(text=st.one_of(citation_records().map(render_canonical),
                          mutations(SAMPLE_CITATIONS), st.text()))
    @settings(max_examples=300, deadline=None)
    def test_a_memoised_result_equals_a_cold_parse(self, text):
        cold = _outcome(parse_canonical.__wrapped__, text)
        assert _outcome(parse_canonical, text) == cold
        assert _outcome(parse_canonical, text) == cold

    def test_an_argument_that_is_not_a_string(self):
        # None reaches the parser, which has no str method to call on it; an
        # unhashable argument is refused by the memo before the parser runs
        with pytest.raises(AttributeError):
            parse_canonical(None)
        with pytest.raises(TypeError, match="unhashable"):
            parse_canonical(["Doe, J. (2020-01-01). T. http://example.org/o"])

    def test_one_iri_object_per_uri_across_parsers(self):
        uri = "http://example.org/memo/shared"
        (triple,) = parse_turtle(f'<{uri}> <http://example.org/memo/p> "x" .')
        record = parse_canonical(f"Memo, A. (2020-01-01). Shared. {uri}")
        assert record.uri is triple.subject
        assert record_from_json(render_json(record)).uri is triple.subject


class TestRenderBibtex:
    def test_pav_golden_file(self):
        golden = (Path(__file__).parent / "fixtures" / "golden" / "pav.bib").read_text("utf-8")
        assert render_bibtex(pav_record()) == golden

    def test_organization_golden_file(self):
        from ontocite import build_record, derive_acronym, extract_metadata, parse_turtle
        from conftest import HEADERS

        g = parse_turtle((HEADERS / "go.ttl").read_text("utf-8"))
        meta = extract_metadata(g, fmt="obo")
        record = build_record(meta, derive_acronym(meta))
        golden = (Path(__file__).parent / "fixtures" / "golden" / "go.bib").read_text("utf-8")
        assert render_bibtex(record) == golden

    def test_pav_entry_fields_round_trip(self):
        entry = _parse_bibtex_fields(render_bibtex(pav_record()))
        assert entry["type"] == "misc"
        assert entry["key"] == "PAV2014"
        assert entry["fields"]["author"] == "Ciccarese, P. and Soiland-Reyes, S."
        assert entry["fields"]["year"] == "2014"
        assert entry["fields"]["month"] == "08"
        assert entry["fields"]["day"] == "28"
        assert entry["fields"]["howpublished"] == "http://purl.org/pav/"
        assert entry["fields"]["note"] == "version 2.3.1, rdf/xml"

    def test_organization_double_braced(self):
        record = CitationRecord(
            creators=(Agent(surname="Gene Ontology Consortium", organization=True),),
            date="2024-06-01",
            full_name="Gene Ontology",
            uri=Iri("http://example.org/go/"),
        )
        entry = render_bibtex(record)
        assert "author = {{Gene Ontology Consortium}}" in entry

    def test_records_differing_only_in_revision(self):
        base = pav_record()
        with_revision = CitationRecord(
            creators=base.creators,
            date=base.date,
            full_name=base.full_name,
            uri=base.uri,
            acronym=base.acronym,
            version=base.version,
            revision="2",
            formats=base.formats,
        )
        a = _parse_bibtex_fields(render_bibtex(base))
        b = _parse_bibtex_fields(render_bibtex(with_revision))
        differing = {
            name
            for name in set(a["fields"]) | set(b["fields"])
            if a["fields"].get(name) != b["fields"].get(name)
        }
        assert differing == {"note"}

    def test_slug_key_without_acronym(self):
        record = CitationRecord(
            creators=(Agent(surname="Doe", initials="J."),),
            date="2020-01-01",
            full_name="Water Quality Ontology",
            uri=Iri("http://example.org/wqo"),
        )
        entry = _parse_bibtex_fields(render_bibtex(record))
        assert entry["key"] == "water-quality-ontology2020"

    @given(record=citation_records())
    @settings(max_examples=200)
    def test_author_year_round_trip_property(self, record):
        entry = _parse_bibtex_fields(render_bibtex(record))
        assert entry["fields"]["year"] == record.date[:4]
        authors = entry["fields"]["author"].split(" and ")
        organizations = [a for a in record.creators if a.organization]
        assert len(authors) >= 1
        for organization in organizations:
            assert "{" + organization.surname + "}" in entry["fields"]["author"]


class TestRenderJson:
    def test_pav_values(self):
        data = json.loads(render_json(pav_record()))
        assert data["date"] == "2014-08-28"
        assert data["uri"] == "http://purl.org/pav/"
        assert data["acronym"] == "PAV"

    def test_absent_optionals_omitted(self):
        record = CitationRecord(
            creators=(Agent(surname="Doe"),),
            date="2020-01-01",
            full_name="Example",
            uri=Iri("http://example.org/x"),
        )
        data = json.loads(render_json(record))
        assert "acronym" not in data
        assert "version" not in data
        assert "revision" not in data
        assert "initials" not in data["creators"][0]

    def test_key_order(self):
        data = json.loads(render_json(pav_record()))
        assert list(data.keys()) == [
            "creators", "date", "acronym", "full_name", "version", "uri", "formats",
        ]

    def test_single_trailing_newline(self):
        text = render_json(pav_record())
        assert text.endswith("}\n") and not text.endswith("\n\n")

    def test_schema_valid(self):
        jsonschema.validate(json.loads(render_json(pav_record())), SCHEMA)

    @given(record=citation_records())
    @settings(max_examples=300, deadline=None)
    def test_json_round_trip(self, record):
        text = render_json(record)
        jsonschema.validate(json.loads(text), SCHEMA)
        assert record_from_json(text) == record

    @given(record=citation_records())
    @settings(max_examples=100)
    def test_bit_identical_for_equal_records(self, record):
        clone = CitationRecord(
            creators=tuple(record.creators),
            date=record.date,
            full_name=record.full_name,
            uri=Iri(record.uri.value),
            acronym=record.acronym,
            version=record.version,
            revision=record.revision,
            formats=tuple(record.formats),
        )
        assert render_json(record) == render_json(clone)

    @given(record=json_records)
    @settings(max_examples=500, deadline=None)
    @example(record=CitationRecord(creators=(), date="", full_name="", uri=Iri("http://a")))
    @example(record=CitationRecord(creators=(Agent(""),), date="", full_name="",
                                   uri=Iri("http://a")))
    def test_bytes_equal_json_dumps(self, record):
        # gen.py writes its dict with json.dumps(..., ensure_ascii=False, indent=2);
        # a record with no creators, which the schema refuses, is not written
        if not record.creators:
            with pytest.raises(CitationRecordError) as exc:
                render_json(record)
            assert exc.value.field == "creators"
            return
        assert render_json(record) == GEN.render_json(gen_record(record))


class TestAgainstGenPy:
    @given(record=citation_records())
    @settings(max_examples=300, deadline=None)
    def test_renderings_equal_gen_py(self, record):
        rec = gen_record(record)
        assert render_canonical(record) == GEN.render_canonical(rec)
        assert render_bibtex(record) == GEN.render_bibtex(rec)
        assert render_json(record) == GEN.render_json(rec)


_PAV_JSON = json.loads(render_json(pav_record()))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def _pav_json(**changes):
    data = {**_PAV_JSON, **changes}
    return json.dumps({key: value for key, value in data.items() if value is not None})


class TestRecordFromJson:
    @pytest.mark.parametrize("text", [
        "1",
        _pav_json(creators="ab"),
        "{",
        _pav_json(creators=[{"initials": "P.", "organization": False}]),
        _pav_json(date=1),
    ], ids=["not-an-object", "creators-string", "malformed", "no-surname", "date-number"])
    def test_defective_json_raises_citation_json_error(self, text):
        with pytest.raises(CitationJsonError):
            record_from_json(text)

    @pytest.mark.parametrize("changes", [
        {"uri": "onto/x", "acronym": 5},
        {"uri": "onto/x", "version": ["1"], "revision": False},
    ])
    def test_a_bad_uri_is_reported_before_the_optional_fields(self, changes):
        with pytest.raises(RdfModelError, match="lacks a scheme"):
            record_from_json(_pav_json(**changes))

    def test_missing_key_is_still_a_value_error(self):
        with pytest.raises(ValueError, match="'uri' is missing"):
            record_from_json(_pav_json(uri=None))

    @pytest.mark.parametrize("field,value,named", [
        ("date", "2014", "date"),
        ("formats", ["turtle", 1], "formats"),
        ("acronym", ["PAV"], "acronym"),
        ("creators", [], "creators"),
        ("creators", [{"surname": "X", "organization": "no"}], "organization"),
        ("date", "２０１４-０８-２８", "date"),
        ("creators", [{"surname": "X", "initials": 1}], "'initials' is not a string or None"),
    ])
    def test_wrongly_typed_fields_rejected(self, field, value, named):
        with pytest.raises(CitationJsonError, match=named):
            record_from_json(_pav_json(**{field: value}))

    @given(text=st.text())
    @settings(max_examples=300)
    def test_arbitrary_text_is_a_record_or_an_ontocite_error(self, text):
        try:
            assert isinstance(record_from_json(text), CitationRecord)
        except OntociteError:
            pass

    @given(field=st.sampled_from(sorted(_PAV_JSON)), value=_JSON_VALUES)
    @settings(max_examples=300)
    def test_any_field_value_renders_or_raises_an_ontocite_error(self, field, value):
        try:
            record = record_from_json(json.dumps({**_PAV_JSON, field: value}))
        except OntociteError:
            return
        render_canonical(record)
        render_bibtex(record)


# A wrongly typed value of each key of the PAV record's JSON but uri, with
# the field that Agent or CitationRecord names for it.
_WRONG_TYPES = {
    "creators": ([{"surname": "Doe", "initials": 1}], "initials"),
    "date": (20140828, "date"),
    "acronym": (["PAV"], "acronym"),
    "full_name": (False, "full_name"),
    "version": (2.3, "version"),
    "formats": (["rdf/xml", 1], "formats[1]"),
}

# json_records, some given a None date or full_name, which no writer
# accepts, or a date shaped YYYY-MM-DD, which record_from_json reads back.
_written_records = st.builds(
    lambda record, changes: CitationRecord(
        **{**{name: getattr(record, name) for name in record._fields}, **changes}),
    json_records,
    st.fixed_dictionaries({}, optional={"date": st.none() | st.dates().map(str),
                                        "full_name": st.none()}),
)


def _refusal(render, record):
    """None when ``render`` writes ``record``, else the field and reason
    of the CitationRecordError it raises."""
    try:
        render(record)
    except CitationRecordError as exc:
        return exc.field, exc.reason
    return None


class TestOneCompletenessCheck:
    """The three writers and record_from_json refuse a record that lacks
    creators, a date or a full_name through one check, which names the
    field; the reader leaves every field's type to the constructors."""

    @given(record=_written_records)
    @settings(max_examples=300, deadline=None)
    def test_the_writers_refuse_the_same_records(self, record):
        refusal = _refusal(render_canonical, record)
        assert _refusal(render_json, record) == refusal
        if refusal is None and len(record.date.split("-")) != 3:
            refusal = "date", f"is not shaped YYYY-MM-DD: {record.date!r}"
        assert _refusal(render_bibtex, record) == refusal

    @given(record=_written_records)
    @settings(max_examples=300, deadline=None)
    def test_what_render_json_writes_reads_back(self, record):
        try:
            text = render_json(record)
        except CitationRecordError:
            return
        try:
            back = record_from_json(text)
        except CitationJsonError as exc:
            assert str(exc) == f"citation JSON 'date' must be YYYY-MM-DD: {record.date!r}"
            return
        assert render_json(back) == text

    @pytest.mark.parametrize("key", sorted(set(_PAV_JSON) - {"uri"}))
    def test_a_wrongly_typed_field_is_named_as_the_constructors_name_it(self, key):
        value, field = _WRONG_TYPES[key]
        with pytest.raises(CitationRecordError) as built:
            if key == "creators":
                Agent(**value[0])
            else:
                _pav_with(**{key: value})
        with pytest.raises(CitationJsonError) as read:
            record_from_json(_pav_json(**{key: value}))
        assert built.value.field == field
        assert str(read.value) == f"citation JSON {field!r} {built.value.reason}"


class TestDifferential:
    def test_citation_differential_against_itself(self):
        tests = Path(__file__).resolve().parent
        src = str(tests.parent / "src")
        proc = subprocess.run(
            [sys.executable, str(tests / "differential.py"), src, src, "--citation",
             "--seed", "7", "--count", "200"], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.fullmatch(r"0 mismatches in \d+ results \(seed 7\)\n", proc.stdout)
