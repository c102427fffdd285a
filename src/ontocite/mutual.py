"""Mutual citation between ontology and publication.

Ontology side: publication references are carried on the ontology node as
``dcterms:references`` literals (legacy ``dc:relation`` values are
accepted on read with a warning). Publication side: a plain-text
reference list is scanned for the ontology's canonical citation, with a
token-similarity fallback gated on the ontology URI and year so that a
house-styled rendering still matches but a different ontology never does.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Set, Tuple

from .citation import CitationRecord, render_canonical
from .exceptions import EmptyReferenceError, NotOntologyNodeError, OntociteWarning
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

    def __init__(self, found: bool, similarity: float, matched_line: Optional[str] = None):
        object.__setattr__(self, "found", found)
        object.__setattr__(self, "similarity", similarity)
        object.__setattr__(self, "matched_line", matched_line)


def inject_reference(g: Graph, onto: Iri, ref_text: str, lang: Optional[str]) -> Graph:
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


def list_references(
    g: Graph, onto: Iri, include_legacy: bool = False
) -> List[Tuple[str, Optional[str]]]:
    """All publication references on the ontology node, as (text, lang)
    pairs in graph iteration order.

    With ``include_legacy`` set, ``dc:relation`` literal values are
    appended as candidate references, each with an :class:`OntociteWarning`.
    """
    refs = [
        (t.object.lexical, t.object.lang)
        for t in g.match(onto, DCTERMS_REFERENCES, None)
        if isinstance(t.object, Literal)
    ]
    if include_legacy:
        for t in g.match(onto, DC_RELATION, None):
            if isinstance(t.object, Literal):
                refs.append((t.object.lexical, t.object.lang))
                warnings.warn("treating legacy dc:relation value as a publication reference: "
                              f"{t.object.lexical[:60]!r}", OntociteWarning, stacklevel=2)
    return refs


def _reference_lines(text: str) -> List[str]:
    """One candidate reference per line; blank-line-separated blocks are
    joined to single lines first."""
    blocks: List[List[str]] = [[]]
    has_blank = False
    for line in text.splitlines():
        if line.strip():
            blocks[-1].append(line.strip())
        else:
            has_blank = True
            if blocks[-1]:
                blocks.append([])
    if has_blank:
        return [" ".join(block) for block in blocks if block]
    return [line for block in blocks for line in block]


def _similarity_tokens(line: str) -> Set[str]:
    tokens = {token.strip(_PUNCTUATION) for token in line.lower().split()}
    tokens.discard("")
    return tokens


def _jaccard(a: Set[str], b: Set[str]) -> float:
    if not a or not b:
        return 0.0
    common = len(a & b)
    return common / (len(a) + len(b) - common)


def _contains_uri_token(line: str, uri: str) -> bool:
    for token in line.split():
        if token == uri or token.strip(_GATE_STRIP) == uri:
            return True
    return False


def check_publication_side(
    reference_list_text: str,
    record: CitationRecord,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> MatchResult:
    """Does the reference list contain the record's citation?

    A line matches when it equals the canonical rendering after whitespace
    normalization, or when it carries both the record's URI and year and
    its token similarity against the canonical rendering reaches the
    threshold. The best line's similarity is reported either way.
    """
    canonical = render_canonical(record)
    canonical_tokens = _similarity_tokens(canonical)
    year = record.date[:4]

    best_similarity = 0.0
    best_line: Optional[str] = None
    found_similarity = 0.0
    found_line: Optional[str] = None

    for raw_line in _reference_lines(reference_list_text):
        line = " ".join(raw_line.split())
        if line == canonical:
            return MatchResult(found=True, similarity=1.0, matched_line=line)
        similarity = _jaccard(_similarity_tokens(line), canonical_tokens)
        if similarity > best_similarity:
            best_similarity, best_line = similarity, line
        if (
            similarity >= threshold
            and year in line
            and _contains_uri_token(line, record.uri.value)
            and similarity > found_similarity
        ):
            found_similarity, found_line = similarity, line

    if found_line is not None:
        return MatchResult(found=True, similarity=found_similarity, matched_line=found_line)
    return MatchResult(found=False, similarity=best_similarity, matched_line=best_line)
