"""Mutual citation between ontology and publication.

Ontology side: publication references are carried on the ontology node as
``dcterms:references`` literals (legacy ``dc:relation`` values are
accepted on read with a warning). Publication side: a plain-text
reference list is scanned for the ontology's canonical citation, with a
token-similarity fallback gated on the ontology URI and year so that a
house-styled rendering still matches but a different ontology never does.
Every line is scored, for the best similarity, only when no line matches.
"""

from __future__ import annotations

import re
import warnings

from .citation import CitationRecord, render_canonical
from .exceptions import EmptyReferenceError, NotOntologyNodeError, OntociteError, OntociteWarning
from .model import Graph, Iri, Literal, Triple, Value
from .vocab import DC_RELATION, DCTERMS_REFERENCES, OWL_ONTOLOGY, RDF_TYPE

#: Minimum token similarity for a fuzzy publication-side match.
DEFAULT_SIMILARITY_THRESHOLD = 0.6

_GATE_STRIP = "<>()[]{}\"';,."
# string.punctuation: the ASCII punctuation characters
_PUNCTUATION = r"""!"#$%&'()*+,-./:;<=>?@[\]^_`{|}~"""


class MatchResult(Value):
    """Outcome of scanning a reference list for one citation."""

    __slots__ = _fields = ("found", "similarity", "matched_line")

    def __init__(self, found: bool, similarity: float, matched_line: str | None = None):
        object.__setattr__(self, "found", found)
        object.__setattr__(self, "similarity", similarity)
        object.__setattr__(self, "matched_line", matched_line)


def inject_reference(g: Graph, onto: Iri, ref_text: str, lang: str | None) -> Graph:
    """Add a publication reference to the ontology header.

    Idempotent: injecting an identical (text, language) pair twice leaves
    the graph unchanged; distinct texts accumulate.
    """
    if not ref_text or not ref_text.strip():
        raise EmptyReferenceError("reference text is empty")
    if not g.match(onto, RDF_TYPE, OWL_ONTOLOGY):
        raise NotOntologyNodeError(
            f"<{onto.value}> is not typed <{OWL_ONTOLOGY.value}> in this graph"
        )
    return g.insert(Triple(onto, DCTERMS_REFERENCES, Literal(ref_text, lang=lang)))


def list_references(g: Graph, onto: Iri) -> list[tuple[str, str | None]]:
    """All publication references on the ontology node, as (text, lang)
    pairs in graph iteration order: the ``dcterms:references`` literals,
    then the legacy ``dc:relation`` literals, each read with an
    :class:`OntociteWarning`.
    """
    refs = [
        (t.object.lexical, t.object.lang)
        for t in g.match(onto, DCTERMS_REFERENCES, None)
        if isinstance(t.object, Literal)
    ]
    for t in g.match(onto, DC_RELATION, None):
        if isinstance(t.object, Literal):
            refs.append((t.object.lexical, t.object.lang))
            warnings.warn("treating legacy dc:relation value as a publication reference: "
                          f"{t.object.lexical[:60]!r}", OntociteWarning, stacklevel=2)
    return refs


def _reference_lines(text: str) -> list[str]:
    """One candidate reference per line, stripped; when a blank line lies
    between two non-blank lines, each blank-line-separated block is joined
    to one line instead."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        line = line.strip()
        if line:
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    if len(blocks) > 1 and blocks[1]:
        return [" ".join(block) for block in blocks if block]
    return blocks[0]


def _similarity_tokens(line: str) -> set[str]:
    tokens = {token.strip(_PUNCTUATION) for token in line.lower().split()}
    tokens.discard("")
    return tokens


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a or not b:
        return 0.0
    common = len(a & b)
    return common / (len(a) + len(b) - common)


def _passes_gates(line: str, uri: str, year: re.Pattern) -> bool:
    """Does ``line`` carry ``uri`` as a token, bare or in brackets or
    punctuation, and ``year`` in another token?"""
    has_uri = has_year = False
    for token in line.split():
        if token == uri or token.strip(_GATE_STRIP) == uri:
            has_uri = True
        elif year.search(token):
            has_year = True
    return has_uri and has_year


def check_publication_side(
    reference_list_text: str,
    record: CitationRecord,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> MatchResult:
    """Does the reference list contain the record's citation?

    The first line that equals the canonical rendering after whitespace
    normalization matches with similarity 1.0. Else the first of the best
    lines that carry the record's URI as a token, and its year as 4 digits
    with no digit on either side in another token, and reach ``threshold``
    (0 to 1) in token similarity against the canonical rendering matches.
    Else nothing matches, and the best similarity of any line is reported
    with that line.
    """
    if not 0.0 <= threshold <= 1.0:
        raise OntociteError(f"similarity threshold must lie in [0, 1], not {threshold!r}")
    canonical = render_canonical(record)
    canonical_tokens = _similarity_tokens(canonical)
    # the year as 4 digits with no digit on either side
    year = re.compile(rf"(?<![0-9]){re.escape(record.date[:4])}(?![0-9])")
    uri = record.uri.value
    lines = _reference_lines(reference_list_text)

    # Both an exact line and a URI token hold the URI as a substring, so
    # only those lines can match.
    found_similarity = 0.0
    found_line: str | None = None
    for raw_line in lines:
        if uri not in raw_line:
            continue
        line = " ".join(raw_line.split())
        if line == canonical:
            return MatchResult(found=True, similarity=1.0, matched_line=line)
        similarity = _jaccard(_similarity_tokens(line), canonical_tokens)
        if similarity >= threshold and similarity > found_similarity and _passes_gates(
                line, uri, year):
            found_similarity, found_line = similarity, line
    if found_line is not None:
        return MatchResult(found=True, similarity=found_similarity, matched_line=found_line)

    # str.split ignores how whitespace runs, so the raw line scores as its
    # normalized form does.
    best_similarity = 0.0
    best_line: str | None = None
    for raw_line in lines:
        similarity = _jaccard(_similarity_tokens(raw_line), canonical_tokens)
        if similarity > best_similarity:
            best_similarity, best_line = similarity, raw_line
    matched_line = best_line and " ".join(best_line.split())
    return MatchResult(found=False, similarity=best_similarity, matched_line=matched_line)
