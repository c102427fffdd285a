from pathlib import Path

import pytest

from ontocite import Agent, CitationRecord, Graph, Iri, parse_turtle

FIXTURES = Path(__file__).parent / "fixtures"
HEADERS = FIXTURES / "headers"
NETWORK = FIXTURES / "network"
REFLISTS = FIXTURES / "reflists"
MISC = FIXTURES / "misc"

# The complete worked-example citation the PAV fixture must reproduce.
PAV_CITATION = (
    "Ciccarese, P. and Soiland-Reyes, S. (2014-08-28). "
    "PAV: Provenance, Authoring and Versioning. 2.3.1. http://purl.org/pav/ [rdf/xml]"
)

# Citation strings in several shapes, used as seeds for mutated input.
SAMPLE_CITATIONS = [
    PAV_CITATION,
    "Gene Ontology Consortium (2024-06-01). GO: Gene Ontology. 2024-06-01(r3). "
    "<http://purl.obolibrary.org/obo/go.owl> [owl/xml, obo]",
    "Müller, Ö., Plato and 王, 小. (2014-08-28). Example Ontology. 1.0, http://example.org/o",
]

# The journal article describing the PAV ontology; used as the publication
# reference injected into the ontology header.
PUBLICATION_REF = (
    "Ciccarese, P., Soiland-Reyes, S., Belhajjame, K., Gray, A. J. G., "
    "Goble, C. and Clark, T. (2013). PAV ontology: provenance, authoring and "
    "versioning. Journal of biomedical semantics, 4, 37. doi:10.1186/2041-1480-4-37"
)


class WeakGraph(Graph):
    """A graph that a weak reference can watch: tests use it to see when a
    graph is dropped."""

    __slots__ = ("__weakref__",)


def pav_record() -> CitationRecord:
    return CitationRecord(
        creators=(
            Agent(surname="Ciccarese", initials="P."),
            Agent(surname="Soiland-Reyes", initials="S."),
        ),
        date="2014-08-28",
        full_name="Provenance, Authoring and Versioning",
        uri=Iri("http://purl.org/pav/"),
        acronym="PAV",
        version="2.3.1",
        formats=("rdf/xml",),
    )


@pytest.fixture
def pav_graph():
    return parse_turtle((HEADERS / "pav.ttl").read_text("utf-8"))
