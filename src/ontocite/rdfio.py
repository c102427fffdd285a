"""Read and write ontology files.

N-Triples is supported in full; Turtle as the subset needed for ontology
headers (directives, prefixed names, predicate/object lists, anonymous
blank-node property lists, short and long strings, language tags,
datatypes, numeric/boolean shorthand). RDF collections ``( ... )`` are
rejected with a distinct "unsupported construct" error. Parsing is
all-or-nothing: the first malformed statement aborts with its position.

Each syntax has one compiled regex for its common case. An N-Triples
statement is one ``_NT_STATEMENT_RE`` match, from the whitespace and
comments before it to its end of line. Turtle is read one ``_TOKEN_RE``
match at a time: an alternation of every Turtle terminal with the
whitespace and comment skip folded in, dispatched on the group that
matched. Where that regex rejects the input (a token holding a backslash
escape, a relative IRI, an undeclared prefix, a malformed statement),
the term readers of :class:`_Scanner` take over at that offset: they
decode escapes and raise every :class:`ParseError`, and line and column
are worked out only then. Each distinct IRI is validated once per
document; its later occurrences reuse the same :class:`Iri`.
"""

from __future__ import annotations

import re
from pathlib import PurePath
from typing import Dict, List, NoReturn, Optional, Set, Tuple, Union
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

# The terminals, each written once and shared by the statement and token
# regexes and by the term readers.
_IRI_CHAR = r'[^\x00-\x20<>"{}|^`\\]'
_SHORT_CHAR = r'[^"\\\n\r]'
# Quote runs shorter than three are content, and so are the quotes before
# the last three of a longer run: the run stops at exactly '"""'.
_LONG_RUN = r'[^"\\]*(?:(?:"{1,2}(?!")|"(?="""))[^"\\]*)*'
_LABEL = r"[A-Za-z0-9_]"
_LANGTAG = r"[A-Za-z][A-Za-z0-9\-]*"
_PN_PREFIX = r"[A-Za-z0-9_\-]*"
# A dot belongs to the local name only when another name character follows.
_PN_LOCAL = r"(?:[A-Za-z0-9_\-%]+|\.(?=[A-Za-z0-9_\-.%]))*"
# A keyword ends where a prefixed name would not: 'a:b' is a name.
_KEYWORD_END = r"(?![A-Za-z0-9_\-:])"
_NUMBER = r"[+-]?(?:[0-9]*\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"
# Whitespace and whole comment lines. A comment that ends the input without
# a newline is left to _WS_RE, so that the skip never backtracks into itself.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*"

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_UCHAR_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8}))")
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_INLINE_WS_RE = re.compile(r"[ \t]*")
_LINE_END_RE = re.compile(r"[ \t]*(?:#[^\n]*)?")
_IRI_RUN_RE = re.compile(_IRI_CHAR + "*")
_SHORT_RUN_RE = re.compile(_SHORT_CHAR + "*")
_LONG_RUN_RE = re.compile(_LONG_RUN)
_BNODE_RE = re.compile(f"_:({_LABEL}*)")
_LANGTAG_RE = re.compile(f"@({_LANGTAG})")
_PNAME_NS_RE = re.compile(f"({_PN_PREFIX}):")
_PNAME_RE = re.compile(f"({_PN_PREFIX}):({_PN_LOCAL})")
_PNAME_START_RE = re.compile(r"[A-Za-z:]")
_NUMBER_RE = re.compile(_NUMBER)

# One N-Triples statement without escapes. Groups: 1 subject IRI, 2 subject
# label, 3 predicate, 4 object IRI, 5 object label, 6 lexical form,
# 7 language tag, 8 datatype.
_NT_STATEMENT_RE = re.compile(
    _SKIP
    + rf"(?:<({_IRI_CHAR}*)>|_:({_LABEL}+))[ \t]*"
    + rf"<({_IRI_CHAR}*)>[ \t]*"
    + rf'(?:<({_IRI_CHAR}*)>|_:({_LABEL}+)|"({_SHORT_CHAR}*)"'
    + rf"(?:@({_LANGTAG})|\^\^<({_IRI_CHAR}*)>)?)[ \t]*"
    + r"\.[ \t]*(?:#[^\n]*)?(?![^\r\n])"
)

# One Turtle token without escapes; ``lastgroup`` names its kind. A literal
# carries its language tag or datatype, and is no token when an '@' or '^'
# follows that does not start one. '.' is tried before a number, so that
# '.5' is a number only where the grammar wants a term. A directive keyword
# ends where a language tag would: '@prefixfoo' is neither directive.
_TOKEN_RE = re.compile(_SKIP + "(?:" + "|".join([
    rf"(?P<pfx>(?:[A-Za-z]{_PN_PREFIX})?):(?P<local>{_PN_LOCAL})",
    r"(?P<semi>;)",
    r"(?P<dot>\.)",
    r"(?P<comma>,)",
    r"(?P<open>\[)",
    r"(?P<close>\])",
    rf'(?:"""(?P<long>{_LONG_RUN})"""|"(?!"")(?P<short>{_SHORT_CHAR}*)")'
    rf"(?:@(?P<lang>{_LANGTAG})|\^\^(?:<(?P<dt>{_IRI_CHAR}*)>"
    rf"|(?P<dtpfx>{_PN_PREFIX}):(?P<dtlocal>{_PN_LOCAL}))|(?![@^]))",
    rf"<(?P<iri>{_IRI_CHAR}*)>",
    "(?:(?P<a>a)|(?P<bool>true|false))" + _KEYWORD_END,
    rf"_:(?P<bnode>{_LABEL}+)",
    rf"(?P<number>{_NUMBER})",
    r"@(?P<directive>prefix|base)(?![A-Za-z0-9\-])",
]) + ")")


class _Scanner:
    """The terminals both syntaxes share, read at a string offset, and the
    N-Triples term forms; :class:`_Turtle` adds the Turtle ones. These
    readers decode what the statement and token regexes leave to them, and
    raise every parse error."""

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

    def skip_from(self, pos: int) -> int:
        """Move to the first offset at or after ``pos`` that is not
        whitespace or comment, and return it."""
        self.pos = pos
        self.skip()
        return self.pos

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

    def triple(self) -> Optional[Triple]:
        """The N-Triples statement after the current offset, read term by
        term; None at the end of the input."""
        self.skip()
        if self.pos >= len(self.text):
            return None
        subject = self.term(literals=False)
        self.skip(_INLINE_WS_RE)
        if self.peek() != "<":
            self.error("expected predicate IRI")
        predicate = self.iri()
        self.skip(_INLINE_WS_RE)
        obj = self.term(literals=True)
        self.skip(_INLINE_WS_RE)
        self.expect(".", "'.' at end of statement")
        self.skip(_LINE_END_RE)
        if self.peek() not in ("", "\r", "\n"):
            self.error("expected end of line after statement")
        return Triple(subject, predicate, obj)


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples into a graph.

    Blank node labels are preserved verbatim. Raises :class:`ParseError`
    with the position of the first malformed statement.
    """
    s = _Scanner(text)
    iris, intern = s.iris, s.intern
    triples: List[Triple] = []
    statement = _NT_STATEMENT_RE.match
    pos = 0
    while True:
        m = statement(text, pos)
        if m is None:
            # an escape, a malformed statement or the end of the input
            s.pos = pos
            triple = s.triple()
            if triple is None:
                return Graph(triples)
            triples.append(triple)
            pos = s.pos
            continue
        subject, label, predicate, obj, obj_label, lexical, lang, datatype = m.groups()
        if subject is None:
            subject = BlankNode(label)
        else:
            subject = iris.get(subject) or intern(m.start(1) - 1, subject)
        predicate = iris.get(predicate) or intern(m.start(3) - 1, predicate)
        if obj is not None:
            obj = iris.get(obj) or intern(m.start(4) - 1, obj)
        elif obj_label is not None:
            obj = BlankNode(obj_label)
        elif lang is not None:
            obj = s.make(m.start(6) - 1, Literal, lexical, lang=lang)
        elif datatype is not None:
            obj = Literal(lexical, datatype=iris.get(datatype) or intern(m.start(8) - 1, datatype))
        else:
            obj = Literal(lexical)
        triples.append(Triple(subject, predicate, obj))
        pos = m.end()


def serialize_ntriples(g: Graph) -> str:
    """Serialize a graph as N-Triples, one statement per line in graph
    iteration order. Output is bit-deterministic and reparses to ``g``.
    Sorting the lines gives that order: an IRI token ends in '>', and a
    blank node or literal token is followed by a space, which sorts below
    every character that could continue it."""
    lines = [f"{nt(t.subject)} {nt(t.predicate)} {nt(t.object)} .\n" for t in g._triples]
    return "".join(sorted(lines))


# --- Turtle subset ----------------------------------------------------------

_CLOSING = {"dot": "'.' at end of statement", "close": "']' closing anonymous node"}


class _Turtle(_Scanner):
    def __init__(self, text: str):
        super().__init__(text)
        self.prefixes: Dict[str, str] = {}
        self.base: Optional[str] = None
        self.triples: List[Triple] = []
        # Explicit _:labels anywhere in the document are reserved so that
        # generated anonymous labels (b1, b2, ...) can never collide.
        self.reserved: Set[str] = set(_BNODE_RE.findall(text))
        self.anon_counter = 0
        self.depth = 0

    def fresh_bnode(self) -> BlankNode:
        while True:
            self.anon_counter += 1
            label = f"b{self.anon_counter}"
            if label not in self.reserved:
                return BlankNode(label)

    # -- term readers

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
        if self.peek() == "(":
            self.error("unsupported construct: RDF collections are not supported")
        m = _NUMBER_RE.match(self.text, self.pos) if literals else None
        if m:
            self.pos = m.end()
            return self.number(m.group())
        if _PNAME_START_RE.match(self.text, self.pos):
            return self.pname()
        self.error("expected an RDF term as object" if literals else "expected subject")

    @staticmethod
    def number(token: str) -> Literal:
        if "e" in token or "E" in token:
            return Literal(token, datatype=XSD_DOUBLE)
        return Literal(token, datatype=XSD_DECIMAL if "." in token else XSD_INTEGER)

    def verb(self) -> Iri:
        if self.peek() == "<":
            return self.iri()
        if _PNAME_START_RE.match(self.text, self.pos):
            return self.pname()
        self.error("expected predicate")

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

    # -- tokens

    def token_iri(self, m: re.Match, group: str, prefix: Optional[str] = None) -> Optional[Iri]:
        """The IRI of the IRIREF in ``group`` of the token ``m``, or of the
        prefixed name whose local part is ``group`` and prefix ``prefix``;
        None for a relative IRI or an undeclared prefix."""
        value = m.group(group)
        if prefix is None:
            start = m.start(group) - 1
        else:
            namespace = self.prefixes.get(m.group(prefix))
            if namespace is None:
                return None
            value, start = namespace + value, m.start(prefix)
        iri = self.iris.get(value)
        if iri is None:
            if prefix is None and not _SCHEME_RE.match(value):
                return None
            iri = self.intern(start, value)
        return iri

    def token_term(self, m: re.Match, kind: str) -> Optional[Term]:
        """The term that the token ``m`` of ``kind`` denotes; None for a
        token that is no term, or whose term the readers must build."""
        if kind == "local":
            return self.token_iri(m, "local", "pfx")
        if kind == "short" or kind == "long":
            return Literal(m.group(kind))
        if kind == "iri":
            return self.token_iri(m, "iri")
        if kind == "lang" or kind == "dt" or kind == "dtlocal":
            short, long = m.group("short", "long")
            lexical = long if short is None else short
            if kind == "lang":
                try:
                    return Literal(lexical, lang=m.group("lang"))
                except RdfModelError:
                    return None
            datatype = self.token_iri(m, kind, "dtpfx" if kind == "dtlocal" else None)
            return None if datatype is None else Literal(lexical, datatype=datatype)
        if kind == "bnode":
            return BlankNode(m.group("bnode"))
        if kind == "number":
            return self.number(m.group("number"))
        if kind == "bool":
            return Literal(m.group("bool"), datatype=XSD_BOOLEAN)
        return None

    # -- statements

    def run(self) -> Graph:
        """Read the document statement by statement."""
        text, token = self.text, _TOKEN_RE.match
        pos = 0
        while True:
            m = token(text, pos)
            kind = m and m.lastgroup
            if kind == "directive":
                self.pos = m.end()
                self.directive(m.group(kind))
                pos = self.pos
                continue
            if kind == "open":
                subject, pos = self.node(m)
                m = token(text, pos)
                if m and m.lastgroup == "dot":
                    pos = m.end()
                    continue
            else:
                subject = self.token_term(m, kind) if kind in ("local", "iri", "bnode") else None
                if subject is None:
                    if self.skip_from(pos) == len(text):
                        return Graph(self.triples)
                    subject = self.term(literals=False)
                    pos = self.pos
                else:
                    pos = m.end()
            pos = self.predicate_objects(pos, subject, "dot")

    def node(self, m: re.Match) -> Tuple[BlankNode, int]:
        """The anonymous node whose '[' is the token ``m``, and the offset
        after its ']'."""
        if self.depth == MAX_NESTING:
            self.error(f"anonymous nodes nested deeper than {MAX_NESTING} levels", m.end() - 1)
        self.depth += 1
        node = self.fresh_bnode()
        pos = m.end()
        m = _TOKEN_RE.match(self.text, pos)
        if m and m.lastgroup == "close":
            pos = m.end()
        else:
            pos = self.predicate_objects(pos, node, "close")
        self.depth -= 1
        return node, pos

    def predicate_objects(self, pos: int, subject: Union[Iri, BlankNode], closer: str) -> int:
        """Read the predicate-object list of ``subject`` from ``pos``
        through its ``closer`` token ('.' or ']'); return the offset after
        it. A token that does not fit, or input the token regex rejects, is
        left to the term readers, which read the term or raise."""
        text, token, append = self.text, _TOKEN_RE.match, self.triples.append
        m = token(text, pos)
        kind = m and m.lastgroup
        while True:
            if kind == "a":
                verb = RDF_TYPE
            else:
                verb = self.token_term(m, kind) if kind in ("local", "iri") else None
            if verb is None:
                self.skip_from(pos)
                verb = self.verb()
                pos = self.pos
            else:
                pos = m.end()
            while True:
                m = token(text, pos)
                kind = m and m.lastgroup
                if kind == "open":
                    obj, pos = self.node(m)
                else:
                    obj = self.token_term(m, kind)
                    if obj is None:
                        self.skip_from(pos)
                        obj = self.term(literals=True)
                        pos = self.pos
                    else:
                        pos = m.end()
                append(Triple(subject, verb, obj))
                m = token(text, pos)
                kind = m and m.lastgroup
                if kind != "comma":
                    break
                pos = m.end()
            if kind == closer:
                return m.end()
            if kind != "semi":
                self.skip_from(pos)
                self.error(f"expected {_CLOSING[closer]}")
            # any run of ';' may separate pairs or end the list
            while kind == "semi":
                pos = m.end()
                m = token(text, pos)
                kind = m and m.lastgroup
            if kind == closer:
                return m.end()
            # the end of the input ends the list too, which leaves it unclosed
            if kind is None and self.skip_from(pos) == len(text):
                self.error(f"expected {_CLOSING[closer]}")


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
