"""Vocabulary constants: property IRIs, precedence ladders, format labels.

The precedence ladders are the published extraction contract. They are
read from the shipped ``data/ladders.json`` at import, through this
module's loader, so that file is their only definition and external
tooling can pin the exact property IRIs without importing this module.
"""

from __future__ import annotations

import json
import os

from .model import Iri

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
DCTERMS_NS = "http://purl.org/dc/terms/"
DC_NS = "http://purl.org/dc/elements/1.1/"
FOAF_NS = "http://xmlns.com/foaf/0.1/"
OMV_NS = "http://omv.ontoware.org/2005/05/ontology#"
IDOT_NS = "http://identifiers.org/idot/"
VANN_NS = "http://purl.org/vocab/vann/"

RDF_TYPE = Iri(RDF_NS + "type")

OWL_ONTOLOGY = Iri(OWL_NS + "Ontology")
OWL_IMPORTS = Iri(OWL_NS + "imports")
OWL_VERSION_INFO = Iri(OWL_NS + "versionInfo")

XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_DOUBLE = Iri(XSD_NS + "double")
XSD_BOOLEAN = Iri(XSD_NS + "boolean")

DCTERMS_TITLE = Iri(DCTERMS_NS + "title")
DCTERMS_CREATOR = Iri(DCTERMS_NS + "creator")
DCTERMS_ISSUED = Iri(DCTERMS_NS + "issued")
DCTERMS_REFERENCES = Iri(DCTERMS_NS + "references")

DC_TITLE = Iri(DC_NS + "title")
DC_RELATION = Iri(DC_NS + "relation")

FOAF_NAME = Iri(FOAF_NS + "name")
FOAF_GIVEN_NAME = Iri(FOAF_NS + "givenName")
FOAF_FAMILY_NAME = Iri(FOAF_NS + "familyName")
FOAF_ORGANIZATION = Iri(FOAF_NS + "Organization")

OMV_ACRONYM = Iri(OMV_NS + "acronym")
IDOT_PREFERRED_PREFIX = Iri(IDOT_NS + "preferredPrefix")
VANN_PREFERRED_NAMESPACE_PREFIX = Iri(VANN_NS + "preferredNamespacePrefix")

# Custom slot for the citation's revision element; no standard vocabulary
# publishes one.
ONTOCITE_REVISION = Iri("http://purl.org/ontocite/revision")

# Serialization labels used in the citation's bracketed format element.
KNOWN_FORMAT_LABELS = ("rdf/xml", "owl/xml", "obo", "n3", "turtle", "n-triples")

# The format label each file extension implies when content sniffing is silent.
EXTENSION_LABELS = {
    ".nt": "n-triples",
    ".ttl": "turtle",
    ".n3": "n3",
    ".owl": "rdf/xml",
    ".rdf": "rdf/xml",
    ".obo": "obo",
}


def shipped_ladders() -> dict:
    """The ladder table shipped with the package, as plain IRI strings."""
    path = os.path.join(os.path.dirname(__file__), "data", "ladders.json")
    return json.loads(__loader__.get_data(path).decode("utf-8"))


# Extraction precedence ladders: the first property with a usable value wins,
# later rungs never override it.
_LADDERS = {field: tuple(map(Iri, iris)) for field, iris in shipped_ladders().items()}
TITLE_LADDER = _LADDERS["title"]
CREATOR_LADDER = _LADDERS["creators"]
DATE_LADDER = _LADDERS["date"]
VERSION_LADDER = _LADDERS["version"]
ACRONYM_LADDER = _LADDERS["acronym"]
REVISION_LADDER = _LADDERS["revision"]
AGENT_NAME_LADDER = _LADDERS["agent_name"]
ORGANIZATION_TYPES = _LADDERS["organization_types"]
