"""The contract every immutable value class keeps: equality within its own
class only, a hash that agrees with equality, no assignment or deletion,
copies and pickles that round-trip, and a fixed repr."""

import copy
import pickle

import pytest

from ontocite import (
    Agent,
    BlankNode,
    CitationGraph,
    CitationRecord,
    Diagnostic,
    Edge,
    Iri,
    Literal,
    MatchResult,
    OntologyMetadata,
    Triple,
)
from ontocite.model import Value

A = Iri("http://a")
B = Iri("http://b")
XSD_INTEGER = Iri("http://www.w3.org/2001/XMLSchema#integer")
DOE = Agent(surname="Doe", initials="J.")

# (class, every field by keyword): each call builds a new, equal instance
SAMPLES = [
    (Iri, {"value": "http://a"}),
    (Literal, {"lexical": "x", "lang": "en", "datatype": None}),
    (Literal, {"lexical": "1", "lang": None, "datatype": XSD_INTEGER}),
    (BlankNode, {"label": "b1"}),
    (Triple, {"subject": A, "predicate": B, "object": Literal("x")}),
    (Agent, {"surname": "Doe", "initials": "J.", "organization": False}),
    (Agent, {"surname": "Acme Org", "initials": None, "organization": True}),
    (OntologyMetadata, {"ontology_iri": A, "title": "T", "creators": (DOE,),
                        "date": "2020-01-01", "version": "1.0", "revision": None,
                        "format_label": "turtle", "acronym": None}),
    (CitationRecord, {"creators": (DOE,), "date": "2020-01-01", "full_name": "T", "uri": A,
                      "acronym": "T", "version": "1.0", "revision": "r2",
                      "formats": ("turtle",)}),
    (Diagnostic, {"code": "E-DATE-MISSING", "severity": "error", "message": "no date",
                  "field": "date"}),
    (MatchResult, {"found": True, "similarity": 0.75, "matched_line": "Doe, J."}),
    (CitationGraph, {"nodes": frozenset({A, B}), "edges": frozenset({Edge(A, B, "imports")})}),
    (Edge, {"src": A, "dst": B, "kind": "imports"}),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(SAMPLES)]

# a field of each class and another value for it
CHANGED = {
    Iri: ("value", "http://c"),
    Literal: ("lexical", "y"),
    BlankNode: ("label", "b2"),
    Triple: ("object", A),
    Agent: ("initials", "K."),
    OntologyMetadata: ("title", "U"),
    CitationRecord: ("formats", ()),
    Diagnostic: ("field", None),
    MatchResult: ("similarity", 0.5),
    CitationGraph: ("edges", frozenset()),
    Edge: ("kind", "references"),
}


def build(sample):
    cls, fields = sample
    return cls(**fields)


@pytest.fixture(params=SAMPLES, ids=IDS)
def sample(request):
    return request.param


class TestValueClasses:
    def test_every_value_class_is_covered(self):
        assert {cls for cls, _ in SAMPLES} == set(Value.__subclasses__())

    def test_fields_read_back(self, sample):
        value = build(sample)
        assert {name: getattr(value, name) for name in sample[1]} == sample[1]

    def test_equal_to_an_equal_instance(self, sample):
        first, second = build(sample), build(sample)
        assert first is not second
        assert first == second
        assert not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_equal_only_within_its_own_class(self, sample):
        value = build(sample)
        for other in SAMPLES:
            if other is not sample:
                assert value != build(other)
        assert value != tuple(sample[1].values())
        subclass = type("Sub", (sample[0],), {})
        assert value != subclass(**sample[1])

    def test_a_different_field_makes_it_unequal(self, sample):
        cls, fields = sample
        name, value = CHANGED[cls]
        assert build(sample) != cls(**{**fields, name: value})

    def test_fields_cannot_be_assigned_or_deleted(self, sample):
        value = build(sample)
        for name in (*sample[1], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert build(sample) == value

    @pytest.mark.parametrize("round_trip", [
        copy.copy,
        copy.deepcopy,
        lambda value: pickle.loads(pickle.dumps(value)),
        lambda value: pickle.loads(pickle.dumps(value, protocol=0)),
    ], ids=["copy", "deepcopy", "pickle", "pickle-0"])
    def test_copies_round_trip(self, sample, round_trip):
        value = build(sample)
        again = round_trip(value)
        assert type(again) is type(value)
        assert again == value
        assert hash(again) == hash(value)
        assert repr(again) == repr(value)

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_iri_token_survives(self, round_trip):
        value = Iri("http://a{b}")
        assert value._token == "<http://a\\u007Bb\\u007D>"
        assert round_trip(value)._token == value._token
        assert round_trip(A)._token is None

    @pytest.mark.parametrize("value, text", [
        (Iri("http://a"), "Iri(value='http://a')"),
        (BlankNode("b1"), "BlankNode(label='b1')"),
        (Literal("x", lang="EN"), "Literal(lexical='x', lang='en', datatype=None)"),
        (Literal("1", datatype=XSD_INTEGER),
         "Literal(lexical='1', lang=None, datatype="
         "Iri(value='http://www.w3.org/2001/XMLSchema#integer'))"),
        (Triple(A, B, BlankNode("b1")),
         "Triple(subject=Iri(value='http://a'), predicate=Iri(value='http://b'), "
         "object=BlankNode(label='b1'))"),
        (DOE, "Agent(surname='Doe', initials='J.', organization=False)"),
        (OntologyMetadata(A), "OntologyMetadata(ontology_iri=Iri(value='http://a'), title=None, "
         "creators=(), date=None, version=None, revision=None, format_label=None, "
         "acronym=None)"),
        (CitationRecord([DOE], "2020-01-01", "T", A, formats=["ttl"]),
         "CitationRecord(creators=(Agent(surname='Doe', initials='J.', organization=False),), "
         "date='2020-01-01', full_name='T', uri=Iri(value='http://a'), acronym=None, "
         "version=None, revision=None, formats=('ttl',))"),
        (Diagnostic("W-VERSION-MISSING", "warning", "no version"),
         "Diagnostic(code='W-VERSION-MISSING', severity='warning', message='no version', "
         "field=None)"),
        (MatchResult(False, 0.5), "MatchResult(found=False, similarity=0.5, matched_line=None)"),
        (CitationGraph(frozenset({A}), frozenset()),
         "CitationGraph(nodes=frozenset({Iri(value='http://a')}), edges=frozenset())"),
        (Edge(A, B, "imports"),
         "Edge(src=Iri(value='http://a'), dst=Iri(value='http://b'), kind='imports')"),
    ], ids=["Iri", "BlankNode", "Literal-lang", "Literal-datatype", "Triple", "Agent",
            "OntologyMetadata", "CitationRecord", "Diagnostic", "MatchResult", "CitationGraph",
            "Edge"])
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_equal_sets_print_alike_whatever_their_insertion_order(self):
        # where hashes collide, a set's iteration order follows insertion order
        iris = [Iri(f"http://example.org/{i}") for i in range(50)]
        edges = [Edge(a, b, "references") for a, b in zip(iris, iris[1:])]
        first = CitationGraph(frozenset(iris), frozenset(edges))
        second = CitationGraph(frozenset(reversed(iris)), frozenset(reversed(edges)))
        assert first == second
        assert repr(first) == repr(second)

    def test_positional_arguments_follow_field_order(self, sample):
        cls, fields = sample
        assert cls(*fields.values()) == build(sample)
