import re
import string
import subprocess
import sys
from contextlib import contextmanager
from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontocite import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    ParseError,
    RdfModelError,
    Triple,
    UnknownFormatError,
    detect_format_label,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)
from ontocite import rdfio
from ontocite.model import _IRI_TABLE, nt
from ontocite.rdfio import MAX_NESTING, _Scanner
from ontocite.vocab import RDF_TYPE, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER

from conftest import FIXTURES, HEADERS, NETWORK
from strategies import bnodes, graphs, iris

A = "<http://a>"
P = "<http://p>"

# One input per distinct ParseError text, and inputs at a directive's seams,
# with the (line, column, message) each must keep.
ERROR_TABLE = [
    # N-Triples
    ("nt", '<http://a> <http://p> "x\\', 1, 25, "unterminated escape sequence"),
    ("nt", '<http://a> <http://p> "\\u12G4" .', 1, 24, "\\u escape needs 4 hex digits"),
    ("nt", '<http://a> <http://p> "\\U0000004" .', 1, 24, "\\U escape needs 8 hex digits"),
    ("nt", '<http://a> <http://p> "\\uDC00" .', 1, 24,
     "escape does not denote a valid character: U+DC00"),
    ("nt", '<http://a> <http://p> "\\U00110000" .', 1, 24,
     "escape does not denote a valid character: U+110000"),
    ("nt", '<http://a> <http://p> "bad\\q" .', 1, 27, "invalid escape sequence: \\q"),
    ("nt", "<http://a\\n> <http://p> <http://a> .", 1, 10, "invalid escape sequence: \\n"),
    ("nt", "<http://a> <http://p> <http://o", 1, 23, "unterminated IRI"),
    ("nt", "<http://a> <http://p> <http://o o> .", 1, 32, "character not allowed in IRI: ' '"),
    ("nt", "_: <http://p> <http://a> .", 1, 1, "blank node label is empty"),
    ("nt", '<http://a> <http://p> "abc', 1, 23, "unterminated string"),
    ("nt", '<http://a> <http://p> "ab\ncd" .', 1, 23, "newline inside string literal"),
    ("nt", '<http://a> <http://p> "x"@1a .', 1, 26, "language tag must start with a letter"),
    ("nt", '<http://a> <http://p> "x"@toolongtag .', 1, 23,
     "malformed language tag: 'toolongtag'"),
    ("nt", "<rel> <http://p> <http://a> .", 1, 1, "IRI lacks a scheme: 'rel'"),
    ("nt", "<http://a> <> <http://a> .", 1, 12, "IRI must be non-empty"),
    ("nt", "<http://a\\u0020b> <http://p> <http://a> .", 1, 1,
     "IRI contains forbidden character(s) ' ': 'http://a b'"),
    ("nt", '"s" <http://p> <http://a> .', 1, 1, "expected subject"),
    ("nt", "<http://a> <http://p> [] .", 1, 23,
     "expected object (IRI, blank node, or literal)"),
    ("nt", '<http://a> <http://p> "x"^^xsd:int .', 1, 28, "datatype must be an IRI"),
    ("nt", "<http://a> p <http://a> .", 1, 12, "expected predicate IRI"),
    ("nt", "<http://a> <http://p> <http://a>\n.", 1, 33, "expected '.' at end of statement"),
    ("nt", "<http://a> <http://p> <http://a> . <http://a> <http://p> <http://a> .", 1, 36,
     "expected end of line after statement"),
    ("nt", '<http://a> <http://p> """x""" .', 1, 25, "expected '.' at end of statement"),
    # Turtle
    ("ttl", '<http://a> <http://p> """abc""', 1, 23, "unterminated long string"),
    ("ttl", "@prefix x: <http://x/>\n<http://s> a <http://o> .", 2, 1,
     "expected '.' after @prefix declaration"),
    ("ttl", "@base <http://b/> <http://s> a <http://o> .", 1, 19,
     "expected '.' after @base declaration"),
    ("ttl", "<http://a> <http://p> [ <http://p> <http://a> .", 1, 47,
     "expected ']' closing anonymous node"),
    ("ttl", "<http://a> <http://p> <rel> .", 1, 23, "relative IRI without @base: 'rel'"),
    ("ttl", "@base <http://b/> .\n<http://s> <p\\u0020q> <o> .", 2, 12,
     "IRI contains forbidden character(s) ' ': 'http://b/p q'"),
    ("ttl", "@prefix x: <http://x/> .\n<http://a> x <http://a> .", 2, 12,
     "expected prefixed name"),
    ("ttl", "<http://a> y:p <http://a> .", 1, 12, "undeclared prefix: 'y':"),
    ("ttl", "@prefix x <http://x/> .", 1, 9, "expected ':' in @prefix declaration"),
    ("ttl", '@prefix x: "http://x/" .', 1, 12, "expected IRI in @prefix declaration"),
    ("ttl", '@base "http://b/" .', 1, 7, "expected IRI in @base declaration"),
    ("ttl", "@prefix x: <http://x/> .\n\n  42 <http://p> <http://a> .", 3, 3,
     "expected subject"),
    ("ttl", "<http://a> <http://p> ( <http://a> ) .", 1, 23,
     "unsupported construct: RDF collections are not supported"),
    ("ttl", '<http://a> "p" <http://a> .', 1, 12, "expected predicate"),
    ("ttl", "<http://a> <http://p> ;", 1, 23, "expected an RDF term as object"),
    ("ttl", "<http://a> <http://p> ٣ .", 1, 23, "expected an RDF term as object"),
    ("ttl", "<http://a> <http://p> <http://a> ;", 1, 35, "expected '.' at end of statement"),
    ("ttl", '<http://a> <http://p> "x"^^ x:y .', 1, 28, "expected prefixed name"),
    ("ttl", '<http://a> <http://p> "x"@en-toolongsubtag .', 1, 23,
     "malformed language tag: 'en-toolongsubtag'"),
    ("ttl", "@prefixfoo: <http://f/> .\nfoo:s a foo:o . ?", 1, 1, "expected subject"),
    ("ttl", "@base <http://[> .\n<x> <http://p> <http://o> .", 2, 1,
     "cannot resolve 'x' against @base: Invalid IPv6 URL"),
    # A prefix starts with a letter wherever it is written.
    ("ttl", "@prefix 1x: <http://x/> .", 1, 9, "expected ':' in @prefix declaration"),
    ("ttl", '@prefix x: <http://x/> .\n<http://a> <http://p> "v"^^1x:t .', 2, 28,
     "expected prefixed name"),
    # A directive is tried at each statement start, and only there.
    ("ttl", "<http://a> <http://p> <http://o> .\n@prefix x <http://x/> .", 2, 9,
     "expected ':' in @prefix declaration"),
    ("ttl", "<http://a> <http://p> <http://o> @prefix x: <http://x/> .", 1, 34,
     "expected '.' at end of statement"),
    ("ttl", "<http://a> @prefix <http://o> .", 1, 12, "expected predicate"),
    ("ttl", "<http://a> <http://p> @base .", 1, 23, "expected an RDF term as object"),
    ("ttl", "@base .", 1, 7, "expected IRI in @base declaration"),
    ("ttl", '@prefix x: # note\n"http://x/" .', 2, 1, "expected IRI in @prefix declaration"),
]

# Inputs with two faults, or a fault inside a term that holds an escape:
# the one reported is the first that a reader going left to right meets.
ERROR_ORDER = [
    ("nt", '<http://a> <http://p> "\\uD800\\q" .', 1, 24,
     "escape does not denote a valid character: U+D800"),
    ("ttl", '<http://a> <http://p> "\\uD800\\q" .', 1, 24,
     "escape does not denote a valid character: U+D800"),
    ("ttl", '<http://a> <http://p> """x\\q""" .', 1, 27, "invalid escape sequence: \\q"),
    ("ttl", '<http://a> <http://p> """\\uDC00""" .', 1, 26,
     "escape does not denote a valid character: U+DC00"),
    ("ttl", '<http://a> <http://p> "x"^^<http://d t> .', 1, 37,
     "character not allowed in IRI: ' '"),
    ("ttl", '<http://a> <http://p> "x"^y .', 1, 26, "expected '.' at end of statement"),
    ("ttl", "<http://a> <http://p> <r\\u0065l> .", 1, 23, "relative IRI without @base: 'rel'"),
    ("nt", '<http://a> <rel> "x\\q" .', 1, 12, "IRI lacks a scheme: 'rel'"),
    ("nt", '<rel> <http://p> "x\\q" .', 1, 1, "IRI lacks a scheme: 'rel'"),
    ("nt", '<http://a> <http://p> "x"@en-abcdefghi <', 1, 23,
     "malformed language tag: 'en-abcdefghi'"),
    ("nt", "<http://a> <http://p> <rel> x", 1, 23, "IRI lacks a scheme: 'rel'"),
    ("nt", '<http://a> <http://p> "a"^^<rel> <', 1, 28, "IRI lacks a scheme: 'rel'"),
    ("nt", "_:b <http://p> <http://o> . x", 1, 29, "expected end of line after statement"),
]

# A raw lone surrogate in each shape of literal, which only a str can hold.
SURROGATE_LITERALS = [
    ("nt", '"a\ud800"'),
    ("nt", '"a\ud800"^^<http://d>'),
    ("nt", '"a\ud800"@en'),
    ("ttl", '"a\ud800"'),
    ("ttl", '"a\ud800"^^<http://d>'),
    ("ttl", '"a\ud800"^^xsd:string'),
    ("ttl", '"a\ud800"@en'),
    ("ttl", '"""a\ud800"""'),
]

# Characters that drive the parsers through their syntax branches.
SYNTAX_TEXT = st.text(
    alphabet='<>"\\#@^_:.;,[]()abcpxyzAEUu019+-\n ', max_size=80
)


def graph_order_lines(g: Graph) -> str:
    """The N-Triples text of ``g`` written in graph iteration order."""
    return "".join(f"{nt(t.subject)} {nt(t.predicate)} {nt(t.object)} .\n" for t in g)


# Graphs whose tokens are prefixes of one another, or hold characters that
# escape below or encode above a space: sorting the serialized lines must
# still give graph iteration order.
SERIALIZER_ORDER_ROWS = {
    "bnode-label-prefix": [
        Triple(BlankNode("b12"), Iri("http://p"), Iri("http://a")),
        Triple(BlankNode("b1"), Iri("http://p"), Iri("http://z")),
        Triple(Iri("http://s"), Iri("http://p"), BlankNode("b12")),
        Triple(Iri("http://s"), Iri("http://p"), BlankNode("b1")),
    ],
    "literal-lang-datatype": [
        Triple(Iri("http://s"), Iri("http://p"), Literal("a", datatype=Iri("http://x/dt"))),
        Triple(Iri("http://s"), Iri("http://p"), Literal("a", lang="en")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("a")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("a b")),
    ],
    "iri-prefix": [
        Triple(Iri("http://a/b"), Iri("http://p"), Iri("http://a")),
        Triple(Iri("http://a"), Iri("http://p/q"), Iri("http://a/b")),
        Triple(Iri("http://a"), Iri("http://p"), Iri("http://a/b")),
        Triple(Iri("http://a"), Iri("http://p"), Iri("http://a")),
    ],
    "escaped-below-space": [
        Triple(Iri("http://s"), Iri("http://p"), Literal("a\tb")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("a\x01")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("a")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("a b")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("a!")),
    ],
    "non-ascii": [
        Triple(Iri("http://s"), Iri("http://p"), Literal("é")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("e")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("éa")),
        Triple(Iri("http://s"), Iri("http://p"), Literal("z")),
    ],
}


def nested(depth: int) -> str:
    return f"{A} {P} " + "[ <http://p> " * depth + A + " ]" * depth + " ."


# --- a Turtle writer with free layout ----------------------------------------

# Literals the writer may spell as numbers or booleans, and prefix names
# that read like the keywords.
SHORTHAND = {
    XSD_INTEGER: re.compile(r"[+-]?[0-9]+"),
    XSD_DECIMAL: re.compile(r"[+-]?[0-9]*\.[0-9]+"),
    XSD_DOUBLE: re.compile(r"[+-]?(?:[0-9]*\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+"),
    XSD_BOOLEAN: re.compile("true|false"),
}
SHORTHAND_LITERALS = [
    Literal(lexical, datatype=datatype)
    for datatype, lexicals in [
        (XSD_BOOLEAN, ["true", "false"]),
        (XSD_INTEGER, ["42", "-7", "+0"]),
        (XSD_DECIMAL, ["1.5", ".5", "-0.25"]),
        (XSD_DOUBLE, ["1e3", "+.5E-2", "2.5e+1"]),
    ]
    for lexical in lexicals
]
PREFIX_NAMES = ["", "a", "true", "false", "ex", "x-1", "t_"]
# Separators between tokens; a comment runs to the end of its line.
SPACES = [" ", "\n", "\t ", "\r\n", " # a comment\n", "#\n"]
NAME_CHARS = set(string.ascii_letters + string.digits + "_-%:")
LOCAL_NAME = re.compile(r"[A-Za-z0-9_\-]*")
# What an IRIREF cannot hold as it is, and the string escapes (ECHAR).
IRIREF_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
ECHARS = {"\t": "t", "\b": "b", "\n": "n", "\r": "r", "\f": "f", '"': '"', "'": "'", "\\": "\\"}


class Speller:
    """Writes IRIREFs and strings with a ``share`` of their characters as
    \\uXXXX or \\UXXXXXXXX escapes, and in strings also as ECHARs. A
    share of 0 writes IRIs and short strings as :func:`nt` does."""

    def __init__(self, rnd, share):
        self.rnd, self.share = rnd, share

    def escape(self, ch, echars):
        code = ord(ch)
        if echars and ch in ECHARS and self.rnd.random() < 0.5:
            return "\\" + ECHARS[ch]
        if code <= 0xFFFF and self.rnd.random() < 0.5:
            return f"\\u{code:04X}"
        return f"\\U{code:08X}"

    def iri(self, value):
        if not self.share:
            return nt(Iri(value))
        return "<" + "".join(
            self.escape(ch, False) if IRIREF_FORBIDDEN.match(ch) or self.rnd.random() < self.share
            else ch for ch in value) + ">"

    def string(self, text, long=False):
        if not self.share and not long:
            return nt(Literal(text))
        out, quotes = [], 0
        for ch in text:
            if long:
                # three raw quotes would end the string
                must = ch == "\\" or ch == '"' and quotes == 2
            else:
                must = ch in '"\\\n\r'
            if must or self.rnd.random() < self.share:
                out.append(self.escape(ch, True))
                quotes = 0
            else:
                out.append(ch)
                quotes = quotes + 1 if ch == '"' else 0
        delimiter = '"""' if long else '"'
        return delimiter + "".join(out) + delimiter

    def term(self, x):
        """The N-Triples token of ``x``."""
        if isinstance(x, Iri):
            return self.iri(x.value)
        if isinstance(x, BlankNode):
            return f"_:{x.label}"
        if x.lang is not None:
            return f"{self.string(x.lexical)}@{x.lang}"
        if x.datatype is not None:
            return f"{self.string(x.lexical)}^^{self.iri(x.datatype.value)}"
        return self.string(x.lexical)


spellers = st.builds(Speller, st.randoms(use_true_random=False),
                     st.sampled_from([0.0, 0.1, 0.5, 1.0]))


@contextmanager
def error_finder_calls():
    """The calls made to the error finder inside the block."""
    calls, fail = [], _Scanner.fail

    def recording(self, pos, role):
        calls.append((pos, role))
        fail(self, pos, role)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Scanner, "fail", recording)
        yield calls


@st.composite
def layout_graphs(draw):
    """``strategies.graphs`` examples in which some triples share one
    subject, some predicates become rdf:type, some objects number or
    boolean literals, and some language tags spell a directive keyword."""
    shared = draw(st.one_of(iris, bnodes))

    def vary(t):
        if draw(st.booleans()):
            t = Triple(shared, t.predicate, t.object)
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice == 0:
            return Triple(t.subject, RDF_TYPE, t.object)
        if choice == 1:
            return Triple(t.subject, t.predicate, draw(st.sampled_from(SHORTHAND_LITERALS)))
        if choice == 2 and isinstance(t.object, Literal):
            lang = draw(st.sampled_from(["prefix", "base", "en-prefix"]))
            return Triple(t.subject, t.predicate, Literal(t.object.lexical, lang=lang))
        return t

    return Graph(vary(t) for t in draw(graphs))


@st.composite
def turtle_layouts(draw, g):
    """A Turtle document for ``g``: '@prefix' declarations, prefixed names
    where the local part allows them, 'a', ';' and ',' lists, numbers,
    booleans and long strings, IRIs and strings with escapes, with comments
    or random whitespace between tokens, and none wherever the tokens stay
    apart without it."""
    prefixes = {}
    spell = draw(spellers)

    def iri(value):
        namespace = value[:max(value.rfind("/"), value.rfind("#")) + 1]
        local = value[len(namespace):]
        if not LOCAL_NAME.fullmatch(local) or not draw(st.booleans()):
            return spell.iri(value)
        if namespace not in prefixes:
            k = len(prefixes)
            prefixes[namespace] = PREFIX_NAMES[k] if k < len(PREFIX_NAMES) else f"p{k}"
        return f"{prefixes[namespace]}:{local}"

    def literal(lit):
        shorthand = SHORTHAND.get(lit.datatype)
        if shorthand and shorthand.fullmatch(lit.lexical) and draw(st.booleans()):
            return lit.lexical
        body = spell.string(lit.lexical, long=draw(st.booleans()))
        if lit.lang is not None:
            return f"{body}@{lit.lang}"
        if lit.datatype is not None:
            return f"{body}^^{iri(lit.datatype.value)}"
        return body

    def term(x):
        if isinstance(x, Iri):
            return iri(x.value)
        if isinstance(x, BlankNode):
            return f"_:{x.label}"
        return literal(x)

    tokens = []
    for subject, group in groupby(g, key=attrgetter("subject")):
        tokens.append(term(subject))
        pairs = groupby(group, key=attrgetter("predicate"))
        for i, (predicate, ts) in enumerate(pairs):
            objects = [t.object for t in ts]
            if i:
                tokens += [";"] * draw(st.integers(min_value=1, max_value=2))
            tokens.append("a" if predicate == RDF_TYPE and draw(st.booleans()) else term(predicate))
            for k, obj in enumerate(objects):
                tokens += [","] * (k > 0) + [term(obj)]
        tokens += [";"] * draw(st.integers(min_value=0, max_value=2)) + ["."]
    tokens = [tok for namespace, name in prefixes.items()
              for tok in ("@prefix", f"{name}:", spell.iri(namespace), ".")] + tokens

    out = []
    for prev, tok in zip([""] + tokens, tokens):
        # a name next to a name or a '.' would run into it; a number or a
        # boolean ends before a '.'
        apart = not (prev and prev[-1] in NAME_CHARS and (
            tok[0] in NAME_CHARS
            or tok[0] == "." and not (
                tok == "." and any(p.fullmatch(prev) for p in SHORTHAND.values()))))
        out.append(draw(st.sampled_from([""] * 3 + SPACES if apart else SPACES)))
        out.append(tok)
    return "".join(out)


class TestNTriples:
    def test_single_statement_with_lang(self):
        g = parse_ntriples('<http://a> <http://p> "x"@en .')
        assert len(g) == 1
        assert list(g)[0].object == Literal("x", lang="en")

    def test_comment_only(self):
        assert len(parse_ntriples("# comment\n")) == 0

    def test_unicode_escape(self):
        # independent check of the expected unescaping:
        assert b"a\\u0041".decode("unicode_escape") == "aA"
        g = parse_ntriples('<http://a> <http://p> "a\\u0041" .')
        assert list(g)[0].object == Literal("aA")

    def test_long_unicode_escape(self):
        g = parse_ntriples('<http://a> <http://p> "\\U0001F600" .')
        assert list(g)[0].object == Literal("\U0001F600")

    def test_all_echars(self):
        g = parse_ntriples('<http://a> <http://p> "\\t\\b\\n\\r\\f\\"\\\\" .')
        assert list(g)[0].object == Literal('\t\b\n\r\f"\\')

    def test_datatype(self):
        g = parse_ntriples(f"{A} {P} \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .")
        assert list(g)[0].object == Literal("5", datatype=XSD_INTEGER)

    def test_blank_nodes_preserved(self):
        g = parse_ntriples(f"_:alice {P} _:bob .")
        triple = list(g)[0]
        assert triple.subject == BlankNode("alice")
        assert triple.object == BlankNode("bob")

    def test_trailing_comment(self):
        g = parse_ntriples(f"{A} {P} {A} . # done\n")
        assert len(g) == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("<http://a <http://p> <http://o> .", 1),
            (f"{A} {P} <http://o> .\nbroken\n", 2),
            (f"{A} {P} <http://o> .\n{A} {P} <http://o>\n", 2),
            (f"{A} {P} <http://o> .\n{A} {P} <http://o> .\n{A} {P} \"x .\n", 3),
            (f'{A} {P} "bad\\q" .', 1),
            (f"{A} {P} relative .", 1),
        ],
    )
    def test_error_line_positions(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_ntriples(text)
        assert exc.value.line == line

    @settings(max_examples=200)
    @given(g=graphs, spell=spellers)
    def test_escaped_statements_parse_to_the_graph(self, g, spell):
        text = "".join(f"{spell.term(t.subject)} {spell.term(t.predicate)} "
                       f"{spell.term(t.object)} .\n" for t in g)
        with error_finder_calls() as calls:
            assert parse_ntriples(text) == g
        assert calls == []

    def test_surrogate_escape_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples(f'{A} {P} "\\uD800" .')

    def test_relative_iri_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples("<relative> <http://p> <http://o> .")


class TestBothSyntaxes:
    @pytest.mark.parametrize("kind,text,line,column,message", ERROR_TABLE)
    def test_error_table(self, kind, text, line, column, message):
        parse = parse_turtle if kind == "ttl" else parse_ntriples
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)

    @pytest.mark.parametrize("kind,text,line,column,message", ERROR_ORDER)
    def test_first_error_is_reported(self, kind, text, line, column, message):
        parse = parse_turtle if kind == "ttl" else parse_ntriples
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)

    @pytest.mark.parametrize("kind,literal", SURROGATE_LITERALS)
    def test_lone_surrogate_in_a_literal_is_a_parse_error(self, kind, literal):
        parse = parse_turtle if kind == "ttl" else parse_ntriples
        prefix = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> . " if kind == "ttl" else ""
        with pytest.raises(ParseError) as exc:
            parse(f"{prefix}<http://a> <http://p> {literal} .")
        assert (exc.value.line, exc.value.column - len(prefix), exc.value.message) == (
            1, 23, "lone surrogate U+D800 in literal")

    def test_differential_against_itself(self):
        src = str(FIXTURES.parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, str(FIXTURES.parent / "differential.py"), src, src,
             "--seed", "7", "--count", "200"], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.endswith("0 mismatches in 400 parses (seed 7)\n")

    @settings(max_examples=300)
    @given(text=SYNTAX_TEXT)
    def test_only_graph_or_parse_error(self, text):
        for parse in (parse_turtle, parse_ntriples):
            try:
                assert isinstance(parse(text), Graph)
            except ParseError:
                pass


class TestSerializer:
    def test_empty_graph(self):
        assert serialize_ntriples(Graph()) == ""

    def test_single_line_shape(self):
        g = Graph([Triple(Iri("http://a"), Iri("http://p"), Literal("x"))])
        text = serialize_ntriples(g)
        assert text == '<http://a> <http://p> "x" .\n'

    def test_escaped_bytes(self):
        lit = Literal('\\ " \n \r \t \x00 \x07 \x1f \x7f é')
        g = Graph([Triple(Iri("http://a"), Iri("http://p"), lit)])
        assert serialize_ntriples(g).encode("utf-8") == (
            b'<http://a> <http://p> "\\\\ \\" \\n \\r \\t \\u0000 \\u0007 \\u001F \\u007F '
            b'\xc3\xa9" .\n'
        )

    def test_escapes_round_trip(self):
        lit = Literal('tab\t quote" back\\ newline\n bell\x07')
        g = Graph([Triple(Iri("http://a"), Iri("http://p"), lit)])
        assert parse_ntriples(serialize_ntriples(g)) == g

    def test_iri_characters_that_iriref_forbids_are_escaped(self):
        g = Graph([Triple(Iri("http://a{b}"), Iri("http://a\\u0041"),
                          Literal("x", datatype=Iri("http://a\x01|b")))])
        text = serialize_ntriples(g)
        assert text == ('<http://a\\u007Bb\\u007D> <http://a\\u005Cu0041> '
                        '"x"^^<http://a\\u0001\\u007Cb> .\n')
        assert parse_ntriples(text) == parse_turtle(text) == g

    @settings(max_examples=200)
    @given(g=graphs)
    def test_round_trip_property(self, g):
        assert parse_ntriples(serialize_ntriples(g)) == g

    @settings(max_examples=300)
    @given(lang=st.text(alphabet="aZ9-_ \n", max_size=6),
           label=st.text(alphabet="aZ9-_ \n", max_size=6))
    def test_every_term_the_model_accepts_round_trips(self, lang, label):
        terms = []
        for build in (lambda: Literal("x", lang=lang), lambda: BlankNode(label)):
            try:
                terms.append(build())
            except RdfModelError:
                pass
        g = Graph(Triple(Iri("http://a"), Iri("http://p"), term) for term in terms)
        assert parse_ntriples(serialize_ntriples(g)) == g

    @settings(max_examples=200)
    @given(g=graphs)
    def test_lines_follow_graph_order(self, g):
        assert serialize_ntriples(g) == graph_order_lines(g)

    @pytest.mark.parametrize("name", SERIALIZER_ORDER_ROWS)
    def test_order_at_token_prefixes(self, name):
        g = Graph(SERIALIZER_ORDER_ROWS[name])
        assert serialize_ntriples(g) == graph_order_lines(g)


class TestInterning:
    TEXT = "<http://a> <http://p> <http://a> .\n<http://b> <http://p> <http://a> .\n"

    @pytest.fixture
    def validated(self, monkeypatch):
        """The values that Iri validates from now on, in order."""
        values = []
        init = Iri.__init__

        def counting(iri, value):
            values.append(value)
            init(iri, value)

        monkeypatch.setattr(Iri, "__init__", counting)
        return values

    @pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle])
    def test_repeated_iri_is_one_object(self, parse):
        (first, second) = list(parse(self.TEXT))
        assert first.subject is first.object is second.object
        assert first.predicate is second.predicate

    def test_prefixed_and_full_forms_share_one_object(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\n"
            'ex:a ex:p <http://ex.org/a>, "x"^^ex:dt .\n'
            '<http://ex.org/a> <http://ex.org/p> "y"^^<http://ex.org/dt> .\n'
        )
        assert len(g) == 3
        assert len({id(t.subject) for t in g}
                   | {id(t.object) for t in g if isinstance(t.object, Iri)}) == 1
        assert len({id(t.predicate) for t in g}) == 1
        assert len({id(t.object.datatype) for t in g if isinstance(t.object, Literal)}) == 1

    @pytest.mark.parametrize("parse, text", [
        (parse_turtle, "@prefix e: <http://example.org/> .\n"
                       'e:a e:p <http://example.org/a>, "x"^^e:a .\n'),
        (parse_turtle, "@prefix e: <http://example.org/> .\n"
                       '<http://example.org/a> <http://example.org/p> e:a, "x"^^e:a .\n'),
        (parse_turtle, "@base <http://example.org/> .\n@prefix e: <http://example.org/> .\n"
                       '<a> e:p e:a, "x"^^<a> .\ne:a <p> <a> .\n'),
        (parse_ntriples, "<http://example.org/a> <http://p> <http://example.org/a> .\n"
                         '<http://example.org/\\u0061> <http://p> "x"^^<http://example.org/a> .\n'),
        (parse_ntriples, '<http://example.org/\\u0061> <http://p> "x" .\n'
                         "<http://example.org/a> <http://p> <http://example.org/a> .\n"
                         '<http://s> <http://p> "y"^^<http://example.org/\\U00000061> .\n'),
    ], ids=["turtle-prefixed-first", "turtle-full-first", "turtle-relative",
            "ntriples-plain-first", "ntriples-escaped-first"])
    def test_the_document_keeps_one_object_per_iri(self, parse, text, monkeypatch):
        # without the process table, every object the parser shares comes from
        # the document's own table
        monkeypatch.setattr(rdfio, "_IRI_TABLE", Iri)
        objects = {}
        for t in parse(text):
            terms = (t.subject, t.predicate, t.object, getattr(t.object, "datatype", None))
            for term in terms:
                if isinstance(term, Iri):
                    objects.setdefault(term.value, set()).add(id(term))
        assert len(objects["http://example.org/a"]) == 1
        assert all(len(ids) == 1 for ids in objects.values())

    @pytest.mark.parametrize("parse, text, message", [
        (parse_ntriples, "<http://a> <http://p> <bad> .\n", "IRI lacks a scheme: 'bad'"),
        (parse_ntriples, "<http://a> <http://p> <http://a\\u0020b> .\n",
         "IRI contains forbidden character(s) ' ': 'http://a b'"),
        (parse_turtle, "<http://a> <http://p> <http://a\\u0020b> .\n",
         "IRI contains forbidden character(s) ' ': 'http://a b'"),
    ])
    def test_repeated_invalid_iri_reports_its_first_occurrence(self, parse, text, message,
                                                               validated):
        # a failed validation is not kept: the second parse validates and fails again
        for _ in range(2):
            validated.clear()
            with pytest.raises(ParseError) as exc:
                parse(text * 2)
            assert str(exc.value) == f"line 1, column 23: {message}"
            assert validated[-1] in message

    @pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle])
    def test_escapes_are_decoded_before_lookup(self, parse):
        # an escaped backslash followed by 'u0041', then an escaped 'A'
        (t,) = parse("<http://a\\u005Cu0041> <http://p> <http://a\\u0041> .\n")
        assert (t.subject, t.object) == (Iri("http://a\\u0041"), Iri("http://aA"))

    @pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle])
    def test_each_distinct_iri_is_validated_once(self, parse, validated):
        text = "".join(f'<http://s> <http://p> "{i}"^^<http://dt> .\n' for i in range(200))
        # earlier parses in this process have validated these IRIs already
        _IRI_TABLE.cache_clear()
        g = parse(text)
        assert len(g) == 200
        assert sorted(validated) == ["http://dt", "http://p", "http://s"]
        validated.clear()
        assert parse(text) == g
        assert validated == []

    def test_later_documents_share_the_objects_of_earlier_ones(self):
        (first,) = parse_turtle("<http://a> <http://p> <http://o> .")
        (second,) = parse_ntriples("<http://a> <http://q> <http://o2> .\n")
        assert second.subject is first.subject

    @pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle])
    def test_a_document_larger_than_the_table_keeps_one_object_per_iri(self, parse):
        # every subject is evicted from the process table before it recurs as an object
        names = [f"http://s/{i}" for i in range(5000)]
        assert len(names) > _IRI_TABLE.cache_info().maxsize
        g = parse("".join(f'<{name}> <http://p> "x" .\n' for name in names)
                  + "".join(f"<http://o> <http://p> <{name}> .\n" for name in names))
        objects = {}
        for t in g:
            for term in (t.subject, t.predicate, t.object):
                if isinstance(term, Iri):
                    objects.setdefault(term.value, set()).add(id(term))
        assert len(objects) == len(names) + 2
        assert all(len(ids) == 1 for ids in objects.values())


class TestTurtle:
    def test_prefixed_title_statement(self):
        g = parse_turtle(
            "@prefix dcterms: <http://purl.org/dc/terms/> . "
            "<http://purl.org/pav/> dcterms:title "
            '"PAV - Provenance, Authoring and Versioning"@en .'
        )
        assert len(g) == 1
        triple = list(g)[0]
        assert triple.predicate == Iri("http://purl.org/dc/terms/title")
        assert triple.object == Literal(
            "PAV - Provenance, Authoring and Versioning", lang="en"
        )

    def test_a_expands_to_rdf_type(self):
        g = parse_turtle("<http://x> a <http://y> .")
        assert list(g)[0].predicate == RDF_TYPE

    def test_semicolon_and_comma_lists(self):
        g = parse_turtle(
            "<http://s> <http://p1> <http://o1>, <http://o2> ; <http://p2> <http://o3> ."
        )
        assert len(g) == 3

    def test_trailing_semicolon(self):
        g = parse_turtle("<http://s> <http://p> <http://o> ; .")
        assert len(g) == 1

    @pytest.mark.parametrize("text,twin", [
        ("<http://a> <http://p> <http://a> ;; <http://p> <http://a> .",
         "<http://a> <http://p> <http://a> .\n"),
        ("<http://s> <http://p> <http://o> ; ;\n ; <http://q> <http://r> ;; .",
         "<http://s> <http://p> <http://o> .\n<http://s> <http://q> <http://r> .\n"),
        ("<http://s> <http://p> [ <http://q> <http://r> ;; <http://x> <http://y> ; ] .",
         "<http://s> <http://p> _:b1 .\n_:b1 <http://q> <http://r> .\n"
         "_:b1 <http://x> <http://y> .\n"),
        ("<http://a> <http://p> [] .", "<http://a> <http://p> _:b1 .\n"),
        ("[ <http://p> <http://o> ] .", "_:b1 <http://p> <http://o> .\n"),
        # a last comment without its newline, in both syntaxes
        ("<http://a> <http://p> <http://a> ; . # c", "<http://a> <http://p> <http://a> .\n# c"),
    ])
    def test_repeated_semicolons(self, text, twin):
        assert parse_turtle(text) == parse_ntriples(twin)

    @pytest.mark.parametrize("text", ["@prefix:<http://x/>.:s :p :o .",
                                      "@base<http://x/>.<s> <p> <o> ."])
    def test_directive_keyword_needs_no_space(self, text):
        assert parse_turtle(text) == parse_ntriples("<http://x/s> <http://x/p> <http://x/o> .")

    @pytest.mark.parametrize("text, name, namespace", [
        ("@prefix x: # c\n <http://x/> # d\n .", "x", "http://x/"),
        ("@prefix x:<http://x/>.", "x", "http://x/"),
        ("@prefix : <http://x/> .", "", "http://x/"),
        ("@base <http://b/> . @prefix x: <rel/> .", "x", "http://b/rel/"),
    ])
    def test_prefix_declaration_shapes(self, text, name, namespace):
        g = parse_turtle(f"{text}\n{name}:s {name}:p {name}:o .")
        assert g == parse_ntriples(f"<{namespace}s> <{namespace}p> <{namespace}o> .")

    @pytest.mark.parametrize("text, base", [
        ("@base <http://b/> . @base <c/> .", "http://b/c/"),
        ("@base # c\n <http://x/> # d\n .", "http://x/"),
    ])
    def test_base_declaration_shapes(self, text, base):
        g = parse_turtle(f"{text}\n<s> <p> <o> .")
        assert g == parse_ntriples(f"<{base}s> <{base}p> <{base}o> .")

    @pytest.mark.parametrize("text, column, message", [
        ("@prefix x: <http://x/> # c", 27, "expected '.' after @prefix declaration"),
        ("@prefix x:y <http://x/> .", 11, "expected IRI in @prefix declaration"),
        ("@prefix x: <rel> .", 12, "relative IRI without @base: 'rel'"),
        ("@prefix x: <http://x\\u0020/> .", 12,
         "IRI contains forbidden character(s) ' ': 'http://x /'"),
        ("@prefix x: <http://x/> .5", 25, "expected subject"),
        ("@prefix x: <http://x/>", 23, "expected '.' after @prefix declaration"),
        ("@base x: <http://x/> .", 7, "expected IRI in @base declaration"),
        ("@base <http://x/> # c", 22, "expected '.' after @base declaration"),
        ("@base <http://x/>", 18, "expected '.' after @base declaration"),
        ("@base <rel> .", 7, "relative IRI without @base: 'rel'"),
        ("@prefix ex: ex:foo .", 13, "expected IRI in @prefix declaration"),
        ("@prefix <http://x/> .", 9, "expected ':' in @prefix declaration"),
        ("@prefix x: <http://x", 12, "unterminated IRI"),
        ("@prefix x: <http://x/> <http://y/> .", 24, "expected '.' after @prefix declaration"),
        ("@prefix x: _:b .", 12, "expected IRI in @prefix declaration"),
        ("@prefix x: <http://x\\u12G4/> .", 21, "\\u escape needs 4 hex digits"),
        ("@base :<http://x/> .", 7, "expected IRI in @base declaration"),
        ("@base <http://x/> <http://y/> .", 19, "expected '.' after @base declaration"),
        ("@base", 6, "expected IRI in @base declaration"),
    ])
    def test_malformed_prefix_declaration_shapes(self, text, column, message):
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (1, column, message)

    def test_anonymous_node_labels_in_document_order(self):
        g = parse_turtle(
            "<http://s> <http://p> [ <http://q> \"x\" ], [ <http://q> \"y\" ] ."
        )
        objects = {t.object for t in g.match(Iri("http://s"), Iri("http://p"), None)}
        assert objects == {BlankNode("b1"), BlankNode("b2")}

    def test_generated_labels_avoid_explicit_ones(self):
        g = parse_turtle(
            "<http://s> <http://p> _:b1 . <http://s> <http://q> [ <http://r> \"x\" ] ."
        )
        anon = [t.object for t in g.match(Iri("http://s"), Iri("http://q"), None)]
        assert anon == [BlankNode("b2")]

    def test_generated_labels_avoid_later_explicit_ones(self):
        g = parse_turtle("<http://s> <http://p> [] .\n<http://s> <http://q> _:b1 .")
        assert g == parse_ntriples("<http://s> <http://p> _:b2 .\n<http://s> <http://q> _:b1 .")

    def test_base_resolution(self):
        g = parse_turtle("@base <http://example.org/dir/> . <name> <http://p> <> .")
        triple = list(g)[0]
        assert triple.subject == Iri("http://example.org/dir/name")
        assert triple.object == Iri("http://example.org/dir/")

    def test_relative_iri_follows_each_base(self):
        g = parse_turtle('@base <http://b/> . <a> <http://p> "1" .\n'
                         '@base <http://c/> . <a> <http://p> "2" .\n')
        assert g == parse_ntriples('<http://b/a> <http://p> "1" .\n'
                                   '<http://c/a> <http://p> "2" .\n')

    def test_relative_iri_without_base_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle("<name> <http://p> <http://o> .")
        assert "relative" in str(exc.value)

    def test_numeric_and_boolean_shorthand(self):
        g = parse_turtle(
            "<http://s> <http://p> 42, 3.14, 1.0e3, true, false ."
        )
        objects = {t.object for t in g}
        assert objects == {
            Literal("42", datatype=XSD_INTEGER),
            Literal("3.14", datatype=XSD_DECIMAL),
            Literal("1.0e3", datatype=XSD_DOUBLE),
            Literal("true", datatype=XSD_BOOLEAN),
            Literal("false", datatype=XSD_BOOLEAN),
        }

    def test_long_string(self):
        g = parse_turtle('<http://s> <http://p> """line one\nline "two"""" .')
        assert list(g)[0].object == Literal('line one\nline "two"')

    def test_datatype_via_prefixed_name(self):
        g = parse_turtle(
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> . "
            '<http://s> <http://p> "5"^^xsd:integer .'
        )
        assert list(g)[0].object == Literal("5", datatype=XSD_INTEGER)

    def test_collections_unsupported(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle("<http://s> <http://p> (1 2) .")
        assert "unsupported construct" in str(exc.value)

    def test_undeclared_prefix(self):
        with pytest.raises(ParseError):
            parse_turtle("<http://s> dcterms:title \"x\" .")

    def test_error_line(self):
        text = "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n<http://s> a owl:Ontology\n<http://t> a owl:Ontology .\n"
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert exc.value.line == 3

    def test_nesting_up_to_the_limit(self):
        assert len(parse_turtle(nested(MAX_NESTING))) == MAX_NESTING + 1

    def test_deep_nesting_rejected_at_the_offending_bracket(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle(nested(3000))
        column = len(f"{A} {P} ") + len("[ <http://p> ") * MAX_NESTING + 1
        assert (exc.value.line, exc.value.column) == (1, column)
        assert "nested deeper than" in exc.value.message

    def test_unresolvable_base_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle("@base <http://[> .\n<x> <http://p> <http://o> .")
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_bnode_subject_property_list(self):
        g = parse_turtle('[ <http://p> "x" ] <http://q> "y" .')
        assert len(g) == 2

    # Where one token ends decides where a malformed statement is reported.
    @pytest.mark.parametrize("text,column,message", [
        ("<http://a> <http://p> <http://o> .5 .", 35, "expected subject"),
        ("<http://a> <http://p> <http://o> ; .5 .", 37, "expected subject"),
        ("<http://a> ab <http://o> .", 12, "expected prefixed name"),
        ("<http://a> a_ <http://o> .", 12, "expected prefixed name"),
        ("<http://a> <http://p> truex .", 23, "expected prefixed name"),
        ('<http://a> <http://p> "x"@prefix:y .', 33, "expected '.' at end of statement"),
        ("@prefixx: <http://x/> .", 1, "expected subject"),
    ])
    def test_token_boundaries_in_errors(self, text, column, message):
        with pytest.raises(ParseError) as exc:
            parse_turtle(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (1, column, message)

    @settings(max_examples=200)
    @given(g=graphs)
    def test_ntriples_is_turtle(self, g):
        assert parse_turtle(serialize_ntriples(g)) == g

    @settings(max_examples=300)
    @given(data=st.data())
    def test_any_layout_parses_to_the_graph(self, data):
        g = data.draw(layout_graphs())
        text = data.draw(turtle_layouts(g))
        with error_finder_calls() as calls:
            assert parse_turtle(text) == g
        assert calls == []

    @pytest.mark.parametrize("stem", [p.stem for p in sorted(HEADERS.glob("*.ttl"))])
    def test_header_twins_parse_equal(self, stem):
        ttl = parse_turtle((HEADERS / f"{stem}.ttl").read_text("utf-8"))
        nt = parse_ntriples((HEADERS / f"{stem}.nt").read_text("utf-8"))
        assert ttl == nt

    @pytest.mark.parametrize("stem", [p.stem for p in sorted(NETWORK.glob("*.ttl"))])
    def test_network_twins_parse_equal(self, stem):
        ttl = parse_turtle((NETWORK / f"{stem}.ttl").read_text("utf-8"))
        nt = parse_ntriples((NETWORK / f"{stem}.nt").read_text("utf-8"))
        assert ttl == nt


class TestFormatDetection:
    @pytest.mark.parametrize(
        "filename,prefix,label",
        [
            ("pav.rdf", '<?xml version="1.0"?><rdf:RDF xmlns:rdf="x">', "rdf/xml"),
            ("pav.xml", '<?xml version="1.0"?><rdf:RDF', "rdf/xml"),
            ("onto.xml", '<?xml version="1.0"?><Ontology xmlns="http://www.w3.org/2002/07/owl#">', "owl/xml"),
            ("onto.obo", "format-version: 1.2", "obo"),
            ("anything.bin", "  format-version: 1.0", "obo"),
            ("pav.ttl", "@prefix dcterms: <x> .", "turtle"),
            ("pav.nt", "<http://a> <http://p> <http://o> .", "n-triples"),
            ("pav.n3", "@prefix : <x> .", "n3"),
            ("pav.owl", "plain text", "rdf/xml"),
            ("PAV.TTL", "anything", "turtle"),
        ],
    )
    def test_rules(self, filename, prefix, label):
        assert detect_format_label(filename, prefix) == label

    def test_unknown_format(self):
        with pytest.raises(UnknownFormatError):
            detect_format_label("mystery.xyz", "nothing recognizable")

    def test_pure_function(self):
        args = ("pav.ttl", "@prefix")
        assert detect_format_label(*args) == detect_format_label(*args)
