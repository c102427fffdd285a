"""Hypothesis strategies shared across the test modules.

Citation records are drawn from the unambiguous domain of the plain-text
grammar (see docs/grammar.abnf): organizations are at least two words and
carry no ", "/" and " separators, titles contain no ". " and no colon,
and versions contain a digit. Rendering is injective on this domain, so
the round-trip properties are exact. Initials are letters of any script
that upper-casing leaves unchanged (upper-case, modifier and other
caseless letters).
"""

import string
from datetime import date

from hypothesis import strategies as st

from ontocite import Agent, BlankNode, CitationRecord, Graph, Iri, Literal, Triple
from ontocite.vocab import KNOWN_FORMAT_LABELS

_UPPER = string.ascii_uppercase
_LOWER = string.ascii_lowercase


def _word(min_size=1, max_size=9):
    return st.tuples(
        st.sampled_from(_UPPER),
        st.text(alphabet=_LOWER, min_size=min_size, max_size=max_size),
    ).map("".join)


# --- RDF model ---------------------------------------------------------------

# Mostly the characters of plain IRIs and their namespace separators, but
# any character that Iri accepts and UTF-8 can encode (as in ``lexicals``).
_path_part = st.text(alphabet=st.one_of(
    st.sampled_from(_LOWER + "0123456789_/#-"),
    st.characters(codec="utf-8", exclude_characters=' \t\n\r\x0b\x0c<>"'),
), max_size=12)
iris = st.builds(lambda host, path: Iri(f"http://{host}.org/{path}"),
                 st.text(alphabet=_LOWER, min_size=1, max_size=8), _path_part)
bnodes = st.text(alphabet=_LOWER + "0123456789_", min_size=1, max_size=8).map(BlankNode)
langtags = st.builds(
    lambda primary, rest: primary + rest,
    st.text(alphabet=_LOWER, min_size=2, max_size=3),
    st.one_of(st.just(""), st.text(alphabet=_LOWER + "0123456789", min_size=1, max_size=4).map("-{}".format)),
)
lexicals = st.text(max_size=40)

literals = st.one_of(
    st.builds(Literal, lexicals),
    st.builds(lambda lex, lang: Literal(lex, lang=lang), lexicals, langtags),
    st.builds(lambda lex, dt: Literal(lex, datatype=dt), lexicals, iris),
)

terms = st.one_of(iris, literals, bnodes)
triples = st.builds(Triple, st.one_of(iris, bnodes), iris, terms)
graphs = st.lists(triples, max_size=50).map(Graph)

# --- citation records --------------------------------------------------------

_surnames = st.one_of(
    _word(1, 11),
    st.tuples(_word(1, 7), _word(1, 7)).map("-".join),
)
_initial_letters = st.characters(categories=("Lu", "Lm", "Lo"))
_initials = st.lists(_initial_letters, min_size=1, max_size=3).map(
    lambda chars: " ".join(ch + "." for ch in chars)
)

persons = st.builds(
    lambda surname, initials: Agent(surname=surname, initials=initials),
    _surnames,
    st.one_of(st.none(), _initials),
)
organizations = st.lists(_word(1, 9), min_size=2, max_size=4).map(
    lambda words: Agent(surname=" ".join(words), organization=True)
)
agents = st.one_of(persons, organizations)

_dates = st.dates(min_value=date(1000, 1, 1), max_value=date(2999, 12, 31)).map(
    date.isoformat
)
_acronyms = st.tuples(
    st.sampled_from(_UPPER), st.text(alphabet=_UPPER + "0123456789", min_size=1, max_size=7)
).map("".join)
_title_words = st.one_of(_word(0, 9), st.text(alphabet=_LOWER, min_size=1, max_size=9))
_full_names = st.lists(_title_words, min_size=1, max_size=5).map(" ".join)
_versions = st.lists(
    st.integers(min_value=0, max_value=999), min_size=1, max_size=4
).map(lambda parts: ".".join(str(p) for p in parts))
_revisions = st.builds(
    lambda number, suffix: f"{number}{suffix}",
    st.integers(min_value=0, max_value=999),
    st.text(alphabet=_LOWER, max_size=2),
)
_uris = st.builds(
    lambda host, tld, path: Iri(f"http://{host}.{tld}/{path}"),
    st.text(alphabet=_LOWER, min_size=2, max_size=10),
    st.sampled_from(["org", "net"]),
    st.text(alphabet=_LOWER + "0123456789/.-", max_size=15),
)
_format_lists = st.lists(st.sampled_from(KNOWN_FORMAT_LABELS), max_size=3, unique=True)


@st.composite
def citation_records(draw):
    version = draw(st.one_of(st.none(), _versions))
    revision = draw(st.one_of(st.none(), _revisions)) if version else None
    return CitationRecord(
        creators=tuple(draw(st.lists(agents, min_size=1, max_size=5))),
        date=draw(_dates),
        full_name=draw(_full_names),
        uri=draw(_uris),
        acronym=draw(st.one_of(st.none(), _acronyms)),
        version=version,
        revision=revision,
        formats=tuple(draw(_format_lists)),
    )


# Any UTF-8-encodable text, weighted towards what a JSON writer must escape:
# quotes, backslashes, control characters and characters outside the BMP.
json_texts = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\U0001d11e'),
    st.characters(codec="utf-8"),
), max_size=12)
_optional_json_texts = st.one_of(st.none(), json_texts)

# Records outside the citable domain (any text in every field, empty creator
# and format lists): what the JSON writer must still write exactly.
json_records = st.builds(
    CitationRecord,
    creators=st.lists(st.builds(Agent, json_texts, _optional_json_texts, st.booleans()),
                      max_size=3),
    date=json_texts,
    full_name=json_texts,
    uri=iris,
    acronym=_optional_json_texts,
    version=_optional_json_texts,
    revision=_optional_json_texts,
    formats=st.lists(json_texts, max_size=3),
)


# --- hostile text ------------------------------------------------------------


@st.composite
def mutations(draw, sources):
    """One of ``sources`` with up to four slices replaced by arbitrary text."""
    text = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = draw(st.integers(min_value=start, max_value=min(len(text), start + 40)))
        text = text[:start] + draw(st.text(max_size=12)) + text[end:]
    return text
