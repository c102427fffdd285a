"""Pin the published extraction vocabulary: the ladders read from the
shipped machine-readable table, and the documented IRIs must agree."""

from pathlib import Path

import pytest

from ontocite import vocab

ROOT = Path(__file__).resolve().parent.parent


def test_title_ladder_pinned():
    assert [p.value for p in vocab.TITLE_LADDER] == [
        "http://purl.org/dc/terms/title",
        "http://purl.org/dc/elements/1.1/title",
        "http://www.w3.org/2000/01/rdf-schema#label",
        "http://www.w3.org/2004/02/skos/core#prefLabel",
    ]


def test_creator_ladder_pinned():
    assert [p.value for p in vocab.CREATOR_LADDER] == [
        "http://purl.org/dc/terms/creator",
        "http://purl.org/dc/elements/1.1/creator",
        "http://purl.org/pav/createdBy",
        "http://xmlns.com/foaf/0.1/maker",
        "http://schema.org/creator",
    ]


def test_date_ladder_pinned():
    assert [p.value for p in vocab.DATE_LADDER] == [
        "http://purl.org/dc/terms/issued",
        "http://purl.org/pav/createdOn",
        "http://purl.org/dc/terms/created",
        "http://purl.org/pav/lastUpdateOn",
        "http://purl.org/dc/terms/modified",
    ]


def test_version_ladder_pinned():
    assert [p.value for p in vocab.VERSION_LADDER] == [
        "http://www.w3.org/2002/07/owl#versionInfo",
        "http://purl.org/pav/version",
        "http://schema.org/version",
    ]


def test_acronym_ladder_pinned():
    assert [p.value for p in vocab.ACRONYM_LADDER] == [
        "http://omv.ontoware.org/2005/05/ontology#acronym",
        "http://identifiers.org/idot/preferredPrefix",
        "http://purl.org/vocab/vann/preferredNamespacePrefix",
    ]


def test_revision_property_pinned():
    assert [p.value for p in vocab.REVISION_LADDER] == ["http://purl.org/ontocite/revision"]


def test_agent_name_ladder_pinned():
    assert [p.value for p in vocab.AGENT_NAME_LADDER] == [
        "http://xmlns.com/foaf/0.1/name",
        "http://www.w3.org/2000/01/rdf-schema#label",
    ]


def test_organization_types_pinned():
    assert [p.value for p in vocab.ORGANIZATION_TYPES] == [
        "http://xmlns.com/foaf/0.1/Organization",
        "http://schema.org/Organization",
    ]


def test_reference_property_pinned():
    assert vocab.DCTERMS_REFERENCES.value == "http://purl.org/dc/terms/references"


def test_format_label_vocabulary_closed():
    assert vocab.KNOWN_FORMAT_LABELS == (
        "rdf/xml", "owl/xml", "obo", "n3", "turtle", "n-triples",
    )
    assert all(label == label.lower() for label in vocab.KNOWN_FORMAT_LABELS)
    assert set(vocab.EXTENSION_LABELS.values()) <= set(vocab.KNOWN_FORMAT_LABELS)


def test_package_data_globs_cover_data_directory():
    # vocab reads data/ladders.json at import, so an install that omits a
    # data file leaves the package unimportable.
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["ontocite"]
    package = ROOT / "src" / "ontocite"
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    data_files = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert data_files
    assert data_files <= shipped
