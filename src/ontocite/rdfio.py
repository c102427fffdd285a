"""Read and write ontology files.

N-Triples is supported in full; Turtle as the subset needed for ontology
headers (directives, prefixed names, predicate/object lists, anonymous
blank-node property lists, short and long strings, language tags,
datatypes, numeric/boolean shorthand). RDF collections ``( ... )`` are
rejected with a distinct "unsupported construct" error. Parsing is
all-or-nothing: the first malformed statement aborts with its position.

One scanner serves both syntaxes: each terminal of the W3C grammars is a
compiled regex matched at the current offset, and line and column are
worked out only when an error is raised. Each distinct IRI is validated
once per document; its later occurrences reuse the same :class:`Iri`.
"""

from __future__ import annotations

import re
from pathlib import PurePath
from typing import Dict, List, NoReturn, Optional, Set, Union
from urllib.parse import urljoin

from .exceptions import ParseError, RdfModelError, UnknownFormatError
from .model import _SCHEME_RE, BlankNode, Graph, Iri, Literal, Term, Triple, nt
from .vocab import (
    EXTENSION_LABELS,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)

#: Deepest nesting of anonymous ``[ ... ]`` nodes that Turtle input may use.
MAX_NESTING = 128

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_UCHAR_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8}))")
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_INLINE_WS_RE = re.compile(r"[ \t]*")
_LINE_END_RE = re.compile(r"[ \t]*(?:#[^\n]*)?")
_IRI_RUN_RE = re.compile(r'[^\x00-\x20<>"{}|^`\\]*')
_SHORT_RUN_RE = re.compile(r'[^"\\\n\r]*')
# Quote runs shorter than three are content, and so are the quotes before
# the last three of a longer run: the run stops at exactly '"""'.
_LONG_RUN_RE = re.compile(r'(?:[^"\\]+|"{1,2}(?!")|"(?="""))*')
_BNODE_RE = re.compile(r"_:([A-Za-z0-9_]*)")
_LANGTAG_RE = re.compile(r"@([A-Za-z][A-Za-z0-9\-]*)")
_PNAME_NS_RE = re.compile(r"([A-Za-z0-9_\-]*):")
# A dot belongs to the local name only when another name character follows.
_PNAME_RE = re.compile(r"([A-Za-z0-9_\-]*):((?:[A-Za-z0-9_\-%]+|\.(?=[A-Za-z0-9_\-.%]))*)")
_PNAME_START_RE = re.compile(r"[A-Za-z:]")
# A keyword ends where a LANGTAG would: '@prefixfoo' is neither directive.
_DIRECTIVE_RE = re.compile(r"@(prefix|base)(?![A-Za-z0-9\-])")
_KEYWORD_RE = re.compile(r"(?:a|true|false)(?![A-Za-z0-9_\-:])")
_NUMBER_RE = re.compile(
    r"[+-]?(?:[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+[eE][+-]?[0-9]+|[0-9]+)"
)


class _Scanner:
    """The terminals both syntaxes share, read at a string offset, and the
    N-Triples term forms; :class:`_Turtle` adds the Turtle ones."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.iris: Dict[str, Iri] = {}

    def error(self, message: str, pos: Optional[int] = None) -> NoReturn:
        """Raise a ParseError at ``pos`` (default: the current offset)."""
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        raise ParseError(line, pos - self.text.rfind("\n", 0, pos), message)

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def skip(self, pattern: re.Pattern = _WS_RE) -> None:
        self.pos = pattern.match(self.text, self.pos).end()

    def expect(self, ch: str, what: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {what}")
        self.pos += 1

    def make(self, start: int, factory, *args, **kwargs):
        """Build a model term; its validation errors point at ``start``."""
        try:
            return factory(*args, **kwargs)
        except RdfModelError as exc:
            self.error(str(exc), start)

    def intern(self, start: int, value: str) -> Iri:
        """The document's one :class:`Iri` for ``value``, validated when
        first seen; its validation errors point at ``start``."""
        iri = self.iris.get(value)
        if iri is None:
            iri = self.iris[value] = self.make(start, Iri, value)
        return iri

    def escape(self, echars: bool) -> str:
        """Decode the escape at the current offset (a backslash); ``echars``
        admits the string escapes such as ``\\n`` besides ``\\u``/``\\U``."""
        start = self.pos
        m = _UCHAR_RE.match(self.text, start)
        if m:
            code = int(m.group(1) or m.group(2), 16)
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                self.error(f"escape does not denote a valid character: U+{code:X}", start)
            self.pos = m.end()
            return chr(code)
        key = self.text[start + 1:start + 2]
        if not key:
            self.error("unterminated escape sequence", start)
        if key in ("u", "U"):
            self.error(f"\\{key} escape needs {4 if key == 'u' else 8} hex digits", start)
        if echars and key in _ECHAR:
            self.pos = start + 2
            return _ECHAR[key]
        self.error(f"invalid escape sequence: \\{key}", start)

    def iriref(self) -> str:
        """The decoded text of the IRIREF whose '<' is at the current offset."""
        text, start = self.text, self.pos
        pos, parts = start + 1, []
        while True:
            m = _IRI_RUN_RE.match(text, pos)
            parts.append(m.group())
            pos = m.end()
            ch = text[pos:pos + 1]
            if ch == ">":
                self.pos = pos + 1
                return "".join(parts)
            if not ch:
                self.error("unterminated IRI", start)
            if ch != "\\":
                self.error(f"character not allowed in IRI: {ch!r}", pos)
            self.pos = pos
            parts.append(self.escape(echars=False))
            pos = self.pos

    def quoted(self, delimiter: str, run: re.Pattern, unterminated: str) -> str:
        """The decoded body of the string whose opening ``delimiter`` is at
        the current offset; ``run`` matches the characters it may hold."""
        text, start = self.text, self.pos
        pos, parts = start + len(delimiter), []
        while True:
            m = run.match(text, pos)
            parts.append(m.group())
            pos = m.end()
            ch = text[pos:pos + 1]
            if ch == '"':
                self.pos = pos + len(delimiter)
                return "".join(parts)
            if ch == "\\":
                self.pos = pos
                parts.append(self.escape(echars=True))
                pos = self.pos
            elif ch:
                self.error("newline inside string literal", start)
            else:
                self.error(unterminated, start)

    def string(self) -> str:
        return self.quoted('"', _SHORT_RUN_RE, "unterminated string")

    def blank_node(self) -> BlankNode:
        m = _BNODE_RE.match(self.text, self.pos)
        if not m.group(1):
            self.error("blank node label is empty")
        self.pos = m.end()
        return BlankNode(m.group(1))

    def literal(self) -> Literal:
        """A string with its optional ``@lang`` or ``^^datatype``."""
        start = self.pos
        lexical = self.string()
        if self.peek() == "@":
            m = _LANGTAG_RE.match(self.text, self.pos)
            if not m:
                self.error("language tag must start with a letter")
            self.pos = m.end()
            return self.make(start, Literal, lexical, lang=m.group(1))
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            return Literal(lexical, datatype=self.datatype())
        return Literal(lexical)

    def iri(self) -> Iri:
        """An IRIREF as written: N-Triples has no relative IRIs."""
        start = self.pos
        return self.intern(start, self.iriref())

    def datatype(self) -> Iri:
        if self.peek() != "<":
            self.error("datatype must be an IRI")
        return self.iri()

    def term(self, literals: bool) -> Term:
        """A subject, or an object when ``literals`` is set."""
        ch = self.peek()
        if ch == "<":
            return self.iri()
        if self.text.startswith("_:", self.pos):
            return self.blank_node()
        if literals and ch == '"':
            return self.literal()
        return self.shorthand(literals)

    def shorthand(self, literals: bool) -> Term:
        """The term forms beyond N-Triples, of which N-Triples has none."""
        self.error("expected object (IRI, blank node, or literal)" if literals
                   else "expected subject")


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples into a graph.

    Blank node labels are preserved verbatim. Raises :class:`ParseError`
    with the position of the first malformed statement.
    """
    s = _Scanner(text)
    triples: List[Triple] = []
    while True:
        s.skip()
        if s.pos >= len(text):
            return Graph(triples)
        subject = s.term(literals=False)
        s.skip(_INLINE_WS_RE)
        if s.peek() != "<":
            s.error("expected predicate IRI")
        predicate = s.iri()
        s.skip(_INLINE_WS_RE)
        obj = s.term(literals=True)
        s.skip(_INLINE_WS_RE)
        s.expect(".", "'.' at end of statement")
        s.skip(_LINE_END_RE)
        if s.peek() not in ("", "\r", "\n"):
            s.error("expected end of line after statement")
        triples.append(Triple(subject, predicate, obj))


def serialize_ntriples(g: Graph) -> str:
    """Serialize a graph as N-Triples, one statement per line in graph
    iteration order. Output is bit-deterministic and reparses to ``g``.
    Sorting the lines gives that order: an IRI token ends in '>', and a
    blank node or literal token is followed by a space, which sorts below
    every character that could continue it."""
    lines = [f"{nt(t.subject)} {nt(t.predicate)} {nt(t.object)} .\n" for t in g._triples]
    return "".join(sorted(lines))


# --- Turtle subset ----------------------------------------------------------


class _Turtle(_Scanner):
    def __init__(self, text: str):
        super().__init__(text)
        self.prefixes: Dict[str, str] = {}
        self.base: Optional[str] = None
        self.triples: List[Triple] = []
        # Explicit _:labels anywhere in the document are reserved so that
        # generated anonymous labels (b1, b2, ...) can never collide.
        self.reserved: Set[str] = set(re.findall(r"_:([A-Za-z0-9_]+)", text))
        self.anon_counter = 0
        self.depth = 0

    def fresh_bnode(self) -> BlankNode:
        while True:
            self.anon_counter += 1
            label = f"b{self.anon_counter}"
            if label not in self.reserved:
                return BlankNode(label)

    # -- terms

    def iri(self) -> Iri:
        """An IRIREF, resolved against ``@base`` when relative."""
        start = self.pos
        raw = self.iriref()
        if not _SCHEME_RE.match(raw):
            if self.base is None:
                self.error(f"relative IRI without @base: {raw!r}", start)
            try:
                raw = urljoin(self.base, raw)
            except ValueError as exc:
                self.error(f"cannot resolve {raw!r} against @base: {exc}", start)
        return self.intern(start, raw)

    def pname(self) -> Iri:
        start = self.pos
        m = _PNAME_RE.match(self.text, start)
        if not m:
            self.error("expected prefixed name")
        prefix, local = m.groups()
        if prefix not in self.prefixes:
            self.error(f"undeclared prefix: {prefix!r}:")
        self.pos = m.end()
        return self.intern(start, self.prefixes[prefix] + local)

    def datatype(self) -> Iri:
        return self.iri() if self.peek() == "<" else self.pname()

    def string(self) -> str:
        if self.text.startswith('"""', self.pos):
            return self.quoted('"""', _LONG_RUN_RE, "unterminated long string")
        return super().string()

    def shorthand(self, literals: bool) -> Term:
        ch = self.peek()
        if ch == "[":
            return self.property_list()
        if ch == "(":
            self.error("unsupported construct: RDF collections are not supported")
        if literals:
            m = _NUMBER_RE.match(self.text, self.pos)
            if m:
                token = m.group()
                self.pos = m.end()
                if "e" in token or "E" in token:
                    return Literal(token, datatype=XSD_DOUBLE)
                return Literal(token, datatype=XSD_DECIMAL if "." in token else XSD_INTEGER)
            m = _KEYWORD_RE.match(self.text, self.pos)
            if m and m.group() != "a":
                self.pos = m.end()
                return Literal(m.group(), datatype=XSD_BOOLEAN)
        if _PNAME_START_RE.match(self.text, self.pos):
            return self.pname()
        self.error("expected an RDF term as object" if literals else "expected subject")

    def verb(self) -> Iri:
        if self.peek() == "<":
            return self.iri()
        m = _KEYWORD_RE.match(self.text, self.pos)
        if m and m.group() == "a":
            self.pos = m.end()
            return RDF_TYPE
        if _PNAME_START_RE.match(self.text, self.pos):
            return self.pname()
        self.error("expected predicate")

    def property_list(self) -> BlankNode:
        """An anonymous ``[ ... ]`` node; its '[' is at the current offset."""
        if self.depth == MAX_NESTING:
            self.error(f"anonymous nodes nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        self.pos += 1
        node = self.fresh_bnode()
        self.skip()
        if self.peek() == "]":
            self.pos += 1
        else:
            self.predicate_objects(node, terminators="]")
            self.skip()
            self.expect("]", "']' closing anonymous node")
        self.depth -= 1
        return node

    # -- statements

    def predicate_objects(self, subject: Union[Iri, BlankNode], terminators: str) -> None:
        while True:
            self.skip()
            verb = self.verb()
            while True:
                self.skip()
                self.triples.append(Triple(subject, verb, self.term(literals=True)))
                self.skip()
                if self.peek() != ",":
                    break
                self.pos += 1
            if self.peek() != ";":
                return
            # any run of ';' may separate pairs or end the list; "" (end of
            # input) is "in" every terminator string, so the caller reports it
            while self.peek() == ";":
                self.pos += 1
                self.skip()
            if self.peek() in terminators:
                return

    def directive(self, name: str) -> None:
        """An ``@prefix`` or ``@base`` declaration, after its keyword."""
        self.skip()
        if name == "prefix":
            m = _PNAME_NS_RE.match(self.text, self.pos)
            if not m:
                self.error("expected ':' in @prefix declaration")
            self.pos = m.end()
            self.skip()
        if self.peek() != "<":
            self.error(f"expected IRI in @{name} declaration")
        value = self.iri().value
        self.skip()
        self.expect(".", f"'.' after @{name} declaration")
        if name == "prefix":
            self.prefixes[m.group(1)] = value
        else:
            self.base = value

    def statement(self) -> None:
        from_list = self.peek() == "["
        subject = self.term(literals=False)
        self.skip()
        if from_list and self.peek() == ".":
            self.pos += 1
            return
        self.predicate_objects(subject, terminators=".")
        self.skip()
        self.expect(".", "'.' at end of statement")

    def run(self) -> Graph:
        while True:
            self.skip()
            if self.pos >= len(self.text):
                return Graph(self.triples)
            m = _DIRECTIVE_RE.match(self.text, self.pos)
            if m:
                self.pos = m.end()
                self.directive(m.group(1))
            else:
                self.statement()


def parse_turtle(text: str) -> Graph:
    """Parse the supported Turtle subset into a graph.

    Relative IRIs resolve against ``@base`` when declared and are rejected
    otherwise. Anonymous ``[ ... ]`` nodes receive labels ``b1, b2, ...``
    in document order; explicit labels are preserved verbatim. Anonymous
    nodes may nest at most :data:`MAX_NESTING` levels deep.
    """
    return _Turtle(text).run()


# --- format detection -------------------------------------------------------

_OWL_XML_NS = "http://www.w3.org/2002/07/owl#"


def detect_format_label(filename: str, content_prefix: str) -> str:
    """Determine the serialization label for a file.

    Content sniffing wins over the extension map; when no rule matches an
    :class:`UnknownFormatError` is raised rather than guessing.
    """
    head = content_prefix
    if "<?xml" in head:
        if "rdf:RDF" in head:
            return "rdf/xml"
        if "<Ontology" in head and _OWL_XML_NS in head:
            return "owl/xml"
    if head.lstrip().startswith("format-version:"):
        return "obo"
    suffix = PurePath(filename).suffix.lower()
    if suffix in EXTENSION_LABELS:
        return EXTENSION_LABELS[suffix]
    raise UnknownFormatError(f"unknown format: no detection rule matched {filename!r}")
