import datetime
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontocite import (
    Agent,
    BlankNode,
    CitationRecord,
    EmptyNameError,
    Graph,
    Iri,
    Literal,
    MissingFieldError,
    NoOntologyNodeError,
    OntociteWarning,
    OntologyMetadata,
    Triple,
    UnresolvableAgentError,
    derive_acronym,
    extract_metadata,
    find_ontology_iri,
    normalize_person_name,
    parse_canonical,
    parse_ntriples,
    parse_turtle,
    render_canonical,
    resolve_agent_name,
    validate_record,
)
from ontocite.citation import is_acronym, is_calendar_date, is_initials
from ontocite.cli import main
from ontocite.model import nt
from ontocite.vocab import (
    ACRONYM_LADDER,
    AGENT_NAME_LADDER,
    CREATOR_LADDER,
    DATE_LADDER,
    ORGANIZATION_TYPES,
    OWL_ONTOLOGY,
    OWL_VERSION_INFO,
    RDF_TYPE,
    TITLE_LADDER,
    VANN_PREFERRED_NAMESPACE_PREFIX,
)

from conftest import HEADERS
from differential import load_gen

ONTO = Iri("http://example.org/onto")
_ANY_SCRIPT_WORD = st.text(alphabet=st.characters(categories=("L",)), min_size=1, max_size=8)


def header(*extra):
    return Graph([Triple(ONTO, RDF_TYPE, OWL_ONTOLOGY), *extra])


class TestIsCalendarDate:
    @pytest.mark.parametrize("value, expected", [
        ("2020-01-31", True),
        ("0000-01-01", False),
        ("0001-01-01", True),
        ("9999-12-31", True),
        ("1900-02-29", False),
        ("2000-02-29", True),
        ("2024-02-29", True),
        ("2023-02-29", False),
        ("2023-04-31", False),
        ("2023-13-01", False),
        ("2023-00-10", False),
        ("2023-01-00", False),
        ("2023-1-01", False),
        ("2023-01-01T00:00", False),
        ("\uff12\uff10\uff12\uff13-01-01", False),
    ])
    def test_rows(self, value, expected):
        assert is_calendar_date(value) is expected

    @given(st.integers(0, 9999), st.one_of(st.integers(1, 12), st.integers(0, 99)),
           st.one_of(st.integers(1, 31), st.integers(0, 99)))
    def test_agrees_with_datetime(self, year, month, day):
        # every YYYY-MM-DD string, with real months and days drawn more often
        value = f"{year:04d}-{month:02d}-{day:02d}"
        try:
            datetime.date.fromisoformat(value)
        except ValueError:
            assert not is_calendar_date(value)
        else:
            assert is_calendar_date(value)


class TestFindOntologyIri:
    def test_pav_fixture(self, pav_graph):
        assert find_ontology_iri(pav_graph) == Iri("http://purl.org/pav/")

    def test_empty_graph(self):
        with pytest.raises(NoOntologyNodeError) as exc:
            find_ontology_iri(Graph())
        assert "http://www.w3.org/2002/07/owl#Ontology" in str(exc.value)

    def test_lexicographic_tie_break_with_warning(self):
        g = Graph([
            Triple(Iri("http://b"), RDF_TYPE, OWL_ONTOLOGY),
            Triple(Iri("http://a"), RDF_TYPE, OWL_ONTOLOGY),
        ])
        with pytest.warns(OntociteWarning, match="multiple ontology nodes") as caught:
            assert find_ontology_iri(g) == Iri("http://a")
        assert len(caught) == 1

    def test_blank_node_subjects_ignored(self):
        g = Graph([Triple(BlankNode("b"), RDF_TYPE, OWL_ONTOLOGY)])
        with pytest.raises(NoOntologyNodeError):
            find_ontology_iri(g)


class TestNormalizePersonName:
    @pytest.mark.parametrize(
        "raw,surname,initials",
        [
            ("Stian Soiland-Reyes", "Soiland-Reyes", "S."),
            ("Alasdair J. G. Gray", "Gray", "A. J. G."),
            ("Plato", "Plato", None),
            ("Paolo Ciccarese", "Ciccarese", "P."),
            ("Ciccarese, Paolo", "Ciccarese", "P."),
            ("Soiland-Reyes, S.", "Soiland-Reyes", "S."),
            ("  Jane   Q.  Public ", "Public", "J. Q."),
            ("Della Santina, Cosimo", "Della Santina", "C."),
            ("Özgür Müller", "Müller", "Ö."),
            ("小明 王", "王", "小."),
            ("ßtraße Müller", "Müller", "S."),
            ("ﬁona Smith", "Smith", "F."),
        ],
    )
    def test_forms(self, raw, surname, initials):
        agent = normalize_person_name(raw)
        assert (agent.surname, agent.initials) == (surname, initials)
        assert not agent.organization

    def test_empty_rejected(self):
        with pytest.raises(EmptyNameError):
            normalize_person_name("   ")

    def test_missing_surname_rejected(self):
        with pytest.raises(EmptyNameError, match="no surname part"):
            normalize_person_name(", John")

    def test_idempotent_on_rendered_form(self):
        first = normalize_person_name("Stian Soiland-Reyes")
        rendered = f"{first.surname}, {first.initials}"
        assert normalize_person_name(rendered) == first

    @given(
        surname=st.from_regex(r"[A-Z][a-z]{1,10}(-[A-Z][a-z]{1,10})?", fullmatch=True),
        given_names=st.lists(
            st.from_regex(r"[A-Z][a-z]{1,8}", fullmatch=True), min_size=0, max_size=3
        ),
    )
    def test_idempotence_property(self, surname, given_names):
        agent = normalize_person_name(" ".join(given_names + [surname]))
        rendered = (
            f"{agent.surname}, {agent.initials}" if agent.initials else agent.surname
        )
        assert normalize_person_name(rendered) == agent

    @given(names=st.lists(
        st.tuples(st.lists(_ANY_SCRIPT_WORD, max_size=3), _ANY_SCRIPT_WORD),
        min_size=1, max_size=3,
    ))
    def test_names_of_any_script_keep_their_form(self, names):
        creators = tuple(normalize_person_name(" ".join([*given, surname]))
                         for given, surname in names)
        record = CitationRecord(creators=creators, date="2014-08-28",
                                full_name="Example Ontology", uri=ONTO)
        assert "W-NAME-FORM" not in {d.code for d in validate_record(record)}
        assert parse_canonical(render_canonical(record)).creators == creators


class TestResolveAgentName:
    def test_literal(self):
        agent = resolve_agent_name(Graph(), Literal("Paolo Ciccarese"))
        assert (agent.surname, agent.initials) == ("Ciccarese", "P.")

    def test_organization_node(self):
        node = BlankNode("org")
        g = header(
            Triple(node, RDF_TYPE, ORGANIZATION_TYPES[0]),
            Triple(node, AGENT_NAME_LADDER[0], Literal("Gene Ontology Consortium")),
        )
        agent = resolve_agent_name(g, node)
        assert agent.organization
        assert agent.surname == "Gene Ontology Consortium"
        assert agent.initials is None

    def test_nameless_node(self):
        for node, token in [(Iri("http://example.org/nobody"), "<http://example.org/nobody>"),
                            (BlankNode("ghost"), "_:ghost")]:
            with pytest.raises(UnresolvableAgentError) as caught:
                resolve_agent_name(Graph(), node)
            assert caught.value.node == node
            assert str(caught.value) == f"no name property found on agent node {token}"


class TestExtractMetadata:
    def test_pav_fixture(self, pav_graph):
        meta = extract_metadata(pav_graph, fmt="rdf/xml")
        assert meta.ontology_iri == Iri("http://purl.org/pav/")
        assert meta.title == "PAV - Provenance, Authoring and Versioning"
        assert [(a.surname, a.initials) for a in meta.creators] == [
            ("Ciccarese", "P."),
            ("Soiland-Reyes", "S."),
        ]
        assert meta.date == "2014-08-28"
        assert meta.version == "2.3.1"
        assert meta.format_label == "rdf/xml"

    def test_typing_triple_only(self):
        meta = extract_metadata(header())
        assert meta.title is None
        assert meta.creators == ()
        assert meta.date is None
        assert meta.version is None
        assert meta.revision is None

    def test_datetime_truncated(self):
        g = header(Triple(ONTO, DATE_LADDER[0], Literal("2014-08-28T14:00:00Z")))
        assert extract_metadata(g).date == "2014-08-28"

    def test_invalid_date_stays_absent(self):
        g = header(Triple(ONTO, DATE_LADDER[0], Literal("August 2014")))
        assert extract_metadata(g).date is None

    @pytest.mark.parametrize("value", ["2023-02-31", "2014-13-01", "0000-01-01", "２０１４-０８-２８"])
    def test_impossible_date_stays_absent(self, value):
        g = header(Triple(ONTO, DATE_LADDER[0], Literal(value)))
        assert extract_metadata(g).date is None

    def test_title_ladder_precedence(self):
        g = header(
            Triple(ONTO, TITLE_LADDER[1], Literal("Lower Rung")),
            Triple(ONTO, TITLE_LADDER[0], Literal("Winning Rung")),
        )
        assert extract_metadata(g).title == "Winning Rung"

    def test_language_preference(self):
        g = header(
            Triple(ONTO, TITLE_LADDER[0], Literal("Titre", lang="fr")),
            Triple(ONTO, TITLE_LADDER[0], Literal("Title", lang="en")),
            Triple(ONTO, TITLE_LADDER[0], Literal("Untagged")),
        )
        assert extract_metadata(g).title == "Title"

    def test_language_fallback_first_tag(self):
        g = header(
            Triple(ONTO, TITLE_LADDER[0], Literal("Titel", lang="de")),
            Triple(ONTO, TITLE_LADDER[0], Literal("Titre", lang="fr")),
        )
        assert extract_metadata(g).title == "Titel"

    @given(drawn=st.lists(st.tuples(st.sampled_from([None, "en", "EN", "en-GB", "fr", "de"]),
                                    st.text("abc", min_size=1, max_size=3)),
                          min_size=1, max_size=5))
    @settings(max_examples=300)
    def test_language_choice_is_the_three_pass_rule(self, drawn):
        values = [Literal(lexical, lang=lang) for lang, lexical in drawn]
        # the oracle: the least English lexical form, else the least
        # (tag, lexical) pair's form, else the least untagged form
        english = sorted(v.lexical for v in values if v.lang == "en")
        tagged = sorted((v.lang, v.lexical) for v in values if v.lang is not None)
        expected = (english[0] if english else tagged[0][1] if tagged
                    else sorted(v.lexical for v in values)[0])
        g = header(*(Triple(ONTO, TITLE_LADDER[0], v) for v in values))
        assert extract_metadata(g).title == expected

    def test_contributors_ignored(self):
        g = header(
            Triple(ONTO, Iri("http://purl.org/dc/terms/contributor"), Literal("Con Tributor")),
        )
        assert extract_metadata(g).creators == ()

    def test_creators_sorted(self):
        g = header(
            Triple(ONTO, CREATOR_LADDER[0], Literal("Zed Omega")),
            Triple(ONTO, CREATOR_LADDER[0], Literal("Ann Alpha")),
        )
        assert [a.surname for a in extract_metadata(g).creators] == ["Alpha", "Omega"]

    def test_unresolvable_creator_skipped_with_warning(self):
        g = header(
            Triple(ONTO, CREATOR_LADDER[0], Iri("http://example.org/nobody")),
            Triple(ONTO, CREATOR_LADDER[0], Literal("Ann Alpha")),
        )
        with pytest.warns(OntociteWarning, match="skipping creator") as caught:
            meta = extract_metadata(g)
        assert [a.surname for a in meta.creators] == ["Alpha"]
        assert len(caught) == 1

    def test_version_info_token_split(self):
        g = parse_turtle((HEADERS / "go.ttl").read_text("utf-8"))
        assert extract_metadata(g).version == "1.4.2"

    @pytest.mark.parametrize("value,version", [
        ("release 2.3 of 2020", "2.3"),
        ("release ２.３ of 2020", "2020"),
        ("release v١.٢", "release v١.٢"),
    ])
    def test_version_info_token_needs_ascii_digits(self, value, version):
        g = header(Triple(ONTO, OWL_VERSION_INFO, Literal(value)))
        assert extract_metadata(g).version == version

    @pytest.mark.parametrize("prop,value,acronym", [
        (ACRONYM_LADDER[0], " MOD ", "MOD"),
        (ACRONYM_LADDER[1], "go", "go"),
        (VANN_PREFERRED_NAMESPACE_PREFIX, "bfo", "BFO"),
    ])
    def test_acronym_rungs(self, prop, value, acronym):
        assert extract_metadata(header(Triple(ONTO, prop, Literal(value)))).acronym == acronym

    @given(seed=st.randoms())
    @settings(max_examples=30)
    def test_permutation_invariance(self, seed):
        g = parse_turtle((HEADERS / "pav.ttl").read_text("utf-8"))
        triples = list(g)
        seed.shuffle(triples)
        assert extract_metadata(Graph(triples)) == extract_metadata(g)

    def test_ladder_monotonicity(self):
        g = header(Triple(ONTO, TITLE_LADDER[0], Literal("Winning Rung")))
        filled = extract_metadata(g).title
        g2 = g.insert(Triple(ONTO, TITLE_LADDER[1], Literal("Lower Rung")))
        assert extract_metadata(g2).title == filled


def _tie_header() -> str:
    """N-Triples of a header with two creators that tie on (surname,
    initials), a person and an organisation, and creators that do not
    resolve: their order in the record and in the warnings is the graph's
    order."""
    onto, acme, creator = nt(ONTO), "<http://example.org/acme>", nt(CREATOR_LADDER[0])
    return "".join(f"{line} .\n" for line in [
        f"{onto} {nt(RDF_TYPE)} {nt(OWL_ONTOLOGY)}",
        f'{onto} {nt(TITLE_LADDER[0])} "TIE: Tie Ontology"@en',
        f'{onto} {nt(DATE_LADDER[0])} "2020-01-01"',
        f'{onto} {creator} "Acme"',
        f"{onto} {creator} {acme}",
        f"{acme} {nt(RDF_TYPE)} {nt(ORGANIZATION_TYPES[0])}",
        f'{acme} {nt(AGENT_NAME_LADDER[0])} "Acme"',
        *(f"{onto} {creator} {node}" for node in UNRESOLVED),
        f"_:ghost {nt(RDF_TYPE)} {nt(ORGANIZATION_TYPES[1])}",
    ])


# Creator nodes without a name. In each pair one token is a prefix of the
# other, where sorting tokens and sorting statement lines could disagree.
UNRESOLVED = ["<http://example.org/nobody>", "<http://example.org/nobody2>", "_:ghost",
              "_:ghost2"]


def _gen_headers(missing) -> list[str]:
    """The N-Triples of one ``make_header`` header per entry of ``missing``,
    the mandatory field it leaves out (or None)."""
    gen, rng = load_gen(), random.Random(28)
    headers = []
    for k, field in enumerate(missing):
        h = gen.make_header(rng, f"http://example.org/gen{k}", f"g{k}", missing=field)
        headers.append("".join(gen.nt_line(t) for t in gen.flatten(gen.header_blocks(h))))
    return headers


ORDER_HEADERS = {
    **{path.stem: path.read_text("utf-8") for path in sorted(HEADERS.glob("*.nt"))},
    "tie": _tie_header(),
    **{f"gen{k}": text
       for k, text in enumerate(_gen_headers([None, None, None, None, "creator", "date"]))},
}


class TestOrderIndependence:
    """Any order of a header's N-Triples lines gives the same fields, the
    same warnings in the same order, and the same ``cite`` and ``validate``
    output."""

    @staticmethod
    def outcome(text: str, path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            meta = extract_metadata(parse_ntriples(text), fmt="n-triples")
        path.write_text(text, "utf-8")
        commands = []
        for argv in (["cite", str(path)], ["validate", str(path)]):
            code = main(argv)
            captured = capsys.readouterr()
            commands.append((code, captured.out, captured.err))
        return meta, [str(w.message) for w in caught], commands

    @pytest.mark.parametrize("name", ORDER_HEADERS)
    def test_any_line_order(self, name, tmp_path, capsys):
        lines = ORDER_HEADERS[name].splitlines(keepends=True)
        path = tmp_path / "header.nt"
        expected = self.outcome("".join(lines), path, capsys)
        rng = random.Random(name)
        for _ in range(4):
            rng.shuffle(lines)
            assert self.outcome("".join(lines), path, capsys) == expected

    def test_tie_header_fields_and_warnings(self, tmp_path, capsys):
        meta, caught, _ = self.outcome(ORDER_HEADERS["tie"], tmp_path / "header.nt", capsys)
        assert meta.creators == (Agent("Acme"), Agent("Acme", organization=True))
        # graph order: the statements' lines, here their objects' tokens, sorted
        assert caught == [f"skipping creator: no name property found on agent node {node}"
                          for node in sorted(UNRESOLVED)]


class TestIsAcronym:
    @pytest.mark.parametrize("text, expected", [
        ("", False),
        ("ABCDEFGHIJ", True),
        ("ABCDEFGHIJK", False),
        ("PA:V", False),
        (" PAV", False),
        ("PAV ", False),
        ("GO Plus", True),
        ("go", True),
    ])
    def test_the_grammars_acronym(self, text, expected):
        assert is_acronym(text) is expected


def _reference_initials(text):
    """The definition of initials, chunk by chunk: one or more chunks
    joined by single spaces, each a letter whose upper case starts with
    itself, followed by "."."""
    return all(
        len(chunk) == 2 and chunk[1] == "." and chunk[0].isalpha()
        and chunk[0].upper()[0] == chunk[0]
        for chunk in text.split(" ")
    )


_INITIAL_CHUNKS = st.lists(
    st.one_of(st.sampled_from(["A.", "Ö.", "Ω.", "Я.", "小.", "ß.", "ǅ.", "½.", "a.", "1.", "..",
                               "A", ". ", "A.B.", "\t.", "\n."]),
              st.characters().map(lambda c: c + ".")),
    min_size=1, max_size=5)


class TestIsInitials:
    def test_every_code_point_agrees_with_the_definition(self):
        wrong = [hex(cp) for cp in range(0x110000)
                 if is_initials(chr(cp) + ".") != _reference_initials(chr(cp) + ".")]
        assert wrong == []

    @given(chunks=_INITIAL_CHUNKS, separator=st.sampled_from([" ", " ", " ", "  ", "\t", "\n", ""]))
    @settings(max_examples=500)
    def test_several_chunks_agree_with_the_definition(self, chunks, separator):
        text = separator.join(chunks)
        assert is_initials(text) is _reference_initials(text)

    @pytest.mark.parametrize("text, expected", [
        ("A. B.", True), ("ß.", False), ("ǅ.", False), ("½.", False), ("A.\tB.", False),
        ("A.\nB.", False), ("A. ß.", False), ("", False), ("A. ", False), ("Я. 小.", True),
    ])
    def test_initials(self, text, expected):
        assert is_initials(text) is expected


class TestDeriveAcronym:
    def test_pav_title_split(self, pav_graph):
        meta = extract_metadata(pav_graph)
        assert derive_acronym(meta) == (
            "PAV",
            "Provenance, Authoring and Versioning",
        )

    def test_leading_title_token_equal_to_acronym_dropped(self):
        meta = OntologyMetadata(Iri("http://x.org/o"), title="Pav - Provenance", acronym="PAV")
        assert derive_acronym(meta) == ("PAV", "Provenance")

    def test_vann_prefix_uppercased(self):
        g = parse_turtle((HEADERS / "bfo.ttl").read_text("utf-8"))
        meta = extract_metadata(g)
        assert derive_acronym(meta) == ("BFO", "Basic Formal Ontology")

    def test_explicit_acronym_property(self):
        g = parse_turtle((HEADERS / "skos.ttl").read_text("utf-8"))
        meta = extract_metadata(g)
        assert derive_acronym(meta) == ("MOD", "Metadata for Ontology Description")

    def test_vann_prefix_smallest_value_before_upper_casing(self):
        g = header(
            Triple(ONTO, TITLE_LADDER[0], Literal("Some Ontology")),
            Triple(ONTO, VANN_PREFERRED_NAMESPACE_PREFIX, Literal("a")),
            Triple(ONTO, VANN_PREFERRED_NAMESPACE_PREFIX, Literal("B")),
        )
        meta = extract_metadata(g)
        assert meta.acronym == "B"
        assert derive_acronym(meta) == ("B", "Some Ontology")

    def test_no_rule_fires(self):
        g = parse_turtle((HEADERS / "wqo.ttl").read_text("utf-8"))
        meta = extract_metadata(g)
        assert derive_acronym(meta) == (None, "Water Quality Ontology")

    def test_lowercase_only_token_not_an_acronym(self):
        g = header(Triple(ONTO, TITLE_LADDER[0], Literal("e-commerce vocabulary")))
        meta = extract_metadata(g)
        assert derive_acronym(meta) == (None, "e-commerce vocabulary")

    @pytest.mark.parametrize("title", [
        "ab:CD - Foo", "ABCDEFGHIJK - Foo", "Gene Ontology: the resource",
    ])
    def test_token_that_is_no_acronym_stays_in_the_title(self, title):
        meta = extract_metadata(header(Triple(ONTO, TITLE_LADDER[0], Literal(title))))
        assert derive_acronym(meta) == (None, title)

    def test_colon_separator(self):
        g = header(Triple(ONTO, TITLE_LADDER[0], Literal("SUMO: Suggested Upper Merged Ontology")))
        meta = extract_metadata(g)
        assert derive_acronym(meta) == ("SUMO", "Suggested Upper Merged Ontology")

    def test_missing_title(self):
        meta = extract_metadata(header())
        with pytest.raises(MissingFieldError):
            derive_acronym(meta)
