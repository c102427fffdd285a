"""Read and write ontology files.

N-Triples is supported in full; Turtle as the subset needed for ontology
headers (directives, prefixed names, predicate/object lists, anonymous
blank-node property lists, short and long strings, language tags,
datatypes, numeric/boolean shorthand). RDF collections ``( ... )`` are
rejected with a distinct "unsupported construct" error. Parsing is
all-or-nothing: the first malformed statement aborts with its position.

Every well-formed term is read by one regex match. An N-Triples statement,
escapes included, is one ``_NT_STATEMENT`` match, from the whitespace
and comments before it to its end of line, and one builder in
:func:`parse_ntriples` turns it into a triple. Turtle is read one
``_TOKEN`` match at a time: an alternation of every Turtle terminal with
the whitespace and comment skip folded in, dispatched on the group that
matched. Escapes are decoded in one place (:meth:`_Scanner.unescape`) and
IRIs resolved and validated in one (:meth:`_Scanner.iri`), which raises
the errors of well-formed tokens, such as a relative IRI. Input that the
regexes reject goes to one error finder, :meth:`_Scanner.fail`, which
names what broke the term there and builds none; an N-Triples statement
first builds the terms before its broken part, which the statement's
parts, nested as optionals, locate. Line and column are worked out only
then. A well-formed ``@prefix`` or ``@base`` declaration is one
``_DIRECTIVE`` match; the tokens read any other only to find its error.
Whitespace and comments are skipped by one rule, ``_SKIP``, everywhere.
Each distinct IRI is validated once per process while it is among the
4,096 most recently validated, through ``model._IRI_TABLE``, which the
citation parsers share; a failed validation is never kept. Within a
document, the later occurrences of an IRI reuse the same :class:`Iri`
however many the table has dropped.
"""

from __future__ import annotations

import os
import re

from .exceptions import ParseError, RdfModelError, UnknownFormatError
from .model import (_IRI_TABLE, _IRIREF_EXCLUDED, _SCHEME_RE, BlankNode, Graph, Iri, Literal,
                    Term, Triple, nt_line)
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

# The terminals, each written once and shared by the regexes below. A body
# that may hold escapes is a run of plain characters with a well-formed
# escape between two runs.
_IRI_CHAR = f"[^{_IRIREF_EXCLUDED}]"
_SHORT_CHAR = r'[^"\\\n\r]'
_UCHAR = r"u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}"
_ESCAPE = rf"""\\(?:[tbnrf"'\\]|{_UCHAR})"""
_IRI = rf"{_IRI_CHAR}*+(?:\\(?:{_UCHAR}){_IRI_CHAR}*+)*+"
_SHORT = rf"{_SHORT_CHAR}*+(?:{_ESCAPE}{_SHORT_CHAR}*+)*+"
# Quote runs shorter than three are content, and so are the quotes before
# the last three of a longer run: the run stops at exactly '"""'.
_LONG_RUN = r'[^"\\]*(?:(?:"{1,2}(?!")|"(?="""))[^"\\]*)*'
_LONG = rf"{_LONG_RUN}(?:{_ESCAPE}{_LONG_RUN})*"
_LABEL = r"[A-Za-z0-9_]"
_LANGTAG = r"[A-Za-z][A-Za-z0-9\-]*"
# A prefix is empty or starts with a letter, as W3C PN_PREFIX does.
_PN_PREFIX = r"(?:[A-Za-z][A-Za-z0-9_\-]*)?"
# A dot belongs to the local name only when another name character follows.
_PN_LOCAL = r"(?:[A-Za-z0-9_\-%]+|\.(?=[A-Za-z0-9_\-.%]))*"
# A keyword ends where a prefixed name would not: 'a:b' is a name.
_KEYWORD_END = r"(?![A-Za-z0-9_\-:])"
_NUMBER = r"(?P<number>[+-]?(?:[0-9]*\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)"
# Whitespace and comments, a last comment without its newline included;
# possessive, so that the skip never backtracks into itself.
_SKIP = r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+"

# The statement and token regexes, and what only escapes and malformed input
# need, are compiled on first use, from re's cache, so that a command that
# parses no RDF, or only one syntax, compiles none or one of them.
_DECODE = r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))"
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}

# One N-Triples statement as its parts, in order: subject, predicate, object
# (a literal is no object when an '@' or '^^' follows that starts no language
# tag or datatype), the '.' with the rest of its line, and the end of the
# line. Groups: 1 subject IRI, 2 subject label, 3 predicate, 4 object IRI,
# 5 object label, 6 lexical form, 7 language tag, 8 datatype, 9 '.', 10 end.
_NT_PARTS = (
    rf"(?:<({_IRI})>|_:({_LABEL}+))[ \t]*",
    rf"<({_IRI})>[ \t]*",
    rf'(?:<({_IRI})>|_:({_LABEL}+)|"({_SHORT})"'
    rf"(?:@({_LANGTAG})|\^\^<({_IRI})>|(?!@|\^\^)))[ \t]*",
    r"(\.)[ \t]*(?:#[^\n]*)?",
    r"(?![^\r\n])()",
)
_NT_STATEMENT = _SKIP + "".join(_NT_PARTS)
# The same parts nested as optionals, compiled on first use: how far a
# malformed statement is well formed.
_NT_PREFIX = "".join(f"(?:{part}" for part in _NT_PARTS) + ")?" * len(_NT_PARTS)

# One Turtle token; ``lastgroup`` names its kind. A literal carries its
# language tag or datatype, and is no token when an '@' or '^^' follows
# that does not start one. '.' is tried before a number, so that '.5' is
# a number only where the grammar wants a term. A directive keyword ends
# where a language tag would: '@prefixfoo' is neither directive.
_TOKEN = _SKIP + "(?:" + "|".join([
    rf"(?P<pfx>{_PN_PREFIX}):(?P<local>{_PN_LOCAL})",
    r"(?P<semi>;)",
    r"(?P<dot>\.)",
    r"(?P<comma>,)",
    r"(?P<open>\[)",
    r"(?P<close>\])",
    rf'(?:"""(?P<long>{_LONG})"""|"(?!"")(?P<short>{_SHORT})")'
    rf"(?:@(?P<lang>{_LANGTAG})|\^\^(?:<(?P<dt>{_IRI})>"
    rf"|(?P<dtpfx>{_PN_PREFIX}):(?P<dtlocal>{_PN_LOCAL}))|(?!@|\^\^))",
    rf"<(?P<iri>{_IRI})>",
    "(?:(?P<a>a)|(?P<bool>true|false))" + _KEYWORD_END,
    rf"_:(?P<bnode>{_LABEL}+)",
    _NUMBER,
    r"@(?P<directive>prefix|base)(?![A-Za-z0-9\-])",
]) + ")"
# A well-formed directive after its keyword, through its '.': '@prefix'
# when group 1, the prefix, is present and '@base' when it is not. Group 2
# is the IRI body. What it does not match, the tokens read to find the error.
_DIRECTIVE = rf"{_SKIP}(?:({_PN_PREFIX}):{_SKIP})?<({_IRI})>{_SKIP}\."


class _Scanner:
    """The term builders both syntaxes share and the error finder;
    :class:`_Turtle` adds the Turtle forms and reads Turtle token by
    token."""

    #: What the error finder reports where no more specific error applies.
    EXPECTED = {
        "subject": "expected subject",
        "predicate": "expected predicate IRI",
        "object": "expected object (IRI, blank node, or literal)",
        "datatype": "datatype must be an IRI",
    }
    #: Whether long strings, prefixed names and collections are syntax.
    turtle = False

    def __init__(self, text: str):
        self.text = text
        self.iris: dict[str, Iri] = {}

    def error(self, message: str, pos: int):
        """Raise a ParseError at offset ``pos``."""
        line = self.text.count("\n", 0, pos) + 1
        raise ParseError(line, pos - self.text.rfind("\n", 0, pos), message)

    def skip(self, pos: int) -> int:
        """The first offset at or after ``pos`` that is not whitespace or
        comment."""
        return re.compile(_SKIP).match(self.text, pos).end()

    def make(self, start: int, factory, *args):
        """Build a model term; its validation errors point at ``start``."""
        try:
            return factory(*args)
        except RdfModelError as exc:
            self.error(str(exc), start)

    def intern(self, start: int, value: str) -> Iri:
        """The document's one :class:`Iri` for ``value``, taken from the
        process table when first seen; its validation errors point at
        ``start``."""
        iri = self.iris.get(value)
        if iri is None:
            iri = self.iris[value] = self.make(start, _IRI_TABLE, value)
        return iri

    # -- term builders

    def unescape(self, start: int, end: int) -> str:
        """The text between two offsets with its escapes, all well formed,
        decoded. The only check that an escape denotes a character."""
        def char(m: re.Match) -> str:
            if m.group(3):
                return _ECHAR[m.group(3)]
            code = int(m.group(1) or m.group(2), 16)
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                self.error(f"escape does not denote a valid character: U+{code:X}",
                           start + m.start())
            return chr(code)

        return re.sub(_DECODE, char, self.text[start:end])

    def resolve(self, value: str, start: int) -> str:
        """``value`` as an absolute IRI: N-Triples has no relative IRIs, and
        :class:`Iri` rejects them."""
        return value

    def iri(self, start: int, end: int) -> Iri:
        """The IRI of the IRIREF whose body lies between two offsets:
        decoded, then resolved, then looked up."""
        value = self.text[start:end]
        if "\\" in value:
            value = self.unescape(start, end)
        return self.iris.get(value) or self.intern(start - 1, self.resolve(value, start - 1))

    # -- errors

    def fail(self, pos: int, role: str):
        """Raise the error of the input at ``pos``, which the regexes
        rejected where the grammar wants a ``role`` (a key of EXPECTED).
        Builds no term: the valid start of a broken IRI or string is only
        decoded, so that an escape that denotes no character and comes
        first is reported first."""
        text = self.text
        ch = text[pos:pos + 1]
        if ch == "<" or ch == '"' and role == "object":
            long = ch == '"' and self.turtle and text.startswith('"""', pos)
            start = pos + (3 if long else 1)
            body = _IRI if ch == "<" else _LONG if long else _SHORT
            end = re.compile(body).match(text, start).end()
            self.unescape(start, end)
            stop = text[end:end + 1]
            if stop == "\\":
                key = text[end + 1:end + 2]
                if not key:
                    self.error("unterminated escape sequence", end)
                if key in ("u", "U"):
                    self.error(f"\\{key} escape needs {4 if key == 'u' else 8} hex digits", end)
                self.error(f"invalid escape sequence: \\{key}", end)
            if ch == "<":
                if not stop:
                    self.error("unterminated IRI", pos)
                self.error(f"character not allowed in IRI: {stop!r}", end)
            if stop != '"':
                self.error("newline inside string literal" if stop
                           else f"unterminated {'long ' if long else ''}string", pos)
            end += 3 if long else 1
            if text.startswith("^^", end):
                self.fail(end + 2, "datatype")
            self.error("language tag must start with a letter", end)
        if role in ("subject", "object") and text.startswith("_:", pos):
            self.error("blank node label is empty", pos)
        if self.turtle and role in ("subject", "predicate", "object"):
            if ch == "(" and role != "predicate":
                self.error("unsupported construct: RDF collections are not supported", pos)
            if ch.isascii() and ch.isalpha() or ch == ":":
                self.error("expected prefixed name", pos)
        self.error(self.EXPECTED[role], pos)


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples into a graph.

    Blank node labels are preserved verbatim. Raises :class:`ParseError`
    with the position of the first malformed statement.
    """
    s = _Scanner(text)
    iris, intern, iri, make = s.iris, s.intern, s.iri, s.make
    triples: list[Triple] = []
    statement = re.compile(_NT_STATEMENT).match
    pos = 0
    while True:
        m = statement(text, pos)
        if m is None:
            # a malformed statement or the end of the input
            pos = s.skip(pos)
            if pos == len(text):
                return Graph(triples)
            m = re.compile(_NT_PREFIX).match(text, pos)
        # the terms before a broken part are built before its error is raised;
        # a group that holds no escape is its own value, as N-Triples resolves
        # no IRI
        subject, label, predicate, obj, obj_label, lexical, lang, datatype, dot, end = m.groups()
        if subject is not None:
            subject = (iri(*m.span(1)) if "\\" in subject
                       else iris.get(subject) or intern(m.start(1) - 1, subject))
        elif label is not None:
            subject = BlankNode(label)
        else:
            s.fail(m.end(), "subject")
        if predicate is None:
            s.fail(m.end(), "predicate")
        predicate = (iri(*m.span(3)) if "\\" in predicate
                     else iris.get(predicate) or intern(m.start(3) - 1, predicate))
        if obj is not None:
            obj = (iri(*m.span(4)) if "\\" in obj
                   else iris.get(obj) or intern(m.start(4) - 1, obj))
        elif obj_label is not None:
            obj = BlankNode(obj_label)
        elif lexical is not None:
            if "\\" in lexical:
                lexical = s.unescape(*m.span(6))
            if datatype is not None:
                datatype = (iri(*m.span(8)) if "\\" in datatype
                            else iris.get(datatype) or intern(m.start(8) - 1, datatype))
            obj = make(m.start(6) - 1, Literal, lexical, lang, datatype)
        else:
            s.fail(m.end(), "object")
        if end is None:
            s.error("expected end of line after statement" if dot
                    else "expected '.' at end of statement", m.end())
        triples.append(Triple(subject, predicate, obj))
        pos = m.end()


def serialize_ntriples(g: Graph) -> str:
    """Serialize a graph as N-Triples, one statement per line in graph
    iteration order. Output is bit-deterministic and reparses to ``g``."""
    return "".join(sorted(map(nt_line, g._triples)))


# --- Turtle subset ----------------------------------------------------------

_CLOSING = {"dot": "'.' at end of statement", "close": "']' closing anonymous node"}


class _Turtle(_Scanner):
    EXPECTED = {
        "subject": "expected subject",
        "predicate": "expected predicate",
        "object": "expected an RDF term as object",
        "datatype": "expected prefixed name",
        "@prefix": "expected IRI in @prefix declaration",
        "@base": "expected IRI in @base declaration",
    }
    turtle = True

    def __init__(self, text: str):
        super().__init__(text)
        self.prefixes: dict[str, str] = {}
        self.base: str | None = None
        self.triples: list[Triple] = []
        # Explicit _:labels anywhere in the document are reserved so that
        # generated anonymous labels (b1, b2, ...) can never collide.
        self.reserved: set[str] = set(re.findall(f"_:({_LABEL}+)", text))
        self.token = re.compile(_TOKEN).match
        self.anon_counter = 0
        self.depth = 0

    def fresh_bnode(self) -> BlankNode:
        while True:
            self.anon_counter += 1
            label = f"b{self.anon_counter}"
            if label not in self.reserved:
                return BlankNode(label)

    def resolve(self, value: str, start: int) -> str:
        """``value`` resolved against ``@base`` when relative."""
        if _SCHEME_RE.match(value):
            return value
        if self.base is None:
            self.error(f"relative IRI without @base: {value!r}", start)
        from urllib.parse import urljoin  # only a relative IRI needs it

        try:
            return urljoin(self.base, value)
        except ValueError as exc:
            self.error(f"cannot resolve {value!r} against @base: {exc}", start)

    def pname(self, m: re.Match, prefix: str, local: str) -> Iri:
        """The IRI of the prefixed name in groups ``prefix`` and ``local``
        of the token ``m``."""
        start, name = m.start(prefix), m.group(prefix)
        namespace = self.prefixes.get(name)
        if namespace is None:
            self.error(f"undeclared prefix: {name!r}:", start)
        return self.intern(start, namespace + m.group(local))

    def token_literal(self, m: re.Match, kind: str) -> Literal:
        """The literal of the token ``m`` whose last group is ``kind``."""
        lexical, body = m.group("short"), "short"
        if lexical is None:
            lexical, body = m.group("long"), "long"
        if "\\" in lexical:
            lexical = self.unescape(*m.span(body))
        datatype = None
        if kind == "dt":
            datatype = self.iri(*m.span("dt"))
        elif kind == "dtlocal":
            datatype = self.pname(m, "dtpfx", "dtlocal")
        quote = m.start(body) - (1 if body == "short" else 3)
        return self.make(quote, Literal, lexical, m.group("lang"), datatype)

    def token_term(self, m: re.Match, kind: str | None) -> Term | None:
        """The term that the token ``m`` of ``kind`` denotes; None for a
        token that is no term."""
        if kind == "local":
            return self.pname(m, "pfx", "local")
        if kind == "iri":
            return self.iri(*m.span(kind))
        if kind == "bnode":
            return BlankNode(m.group(kind))
        if kind in ("short", "long", "lang", "dt", "dtlocal"):
            return self.token_literal(m, kind)
        if kind == "number":
            token = m.group(kind)
            if "e" in token or "E" in token:
                return Literal(token, datatype=XSD_DOUBLE)
            return Literal(token, datatype=XSD_DECIMAL if "." in token else XSD_INTEGER)
        if kind == "bool":
            return Literal(m.group(kind), datatype=XSD_BOOLEAN)
        return None

    def directive(self, name: str, pos: int) -> int:
        """Read an ``@prefix`` or ``@base`` declaration from ``pos``, after
        its keyword; return the offset after its '.'."""
        text = self.text
        m = re.compile(_DIRECTIVE).match(text, pos)
        if m and (m.group(1) is None) == (name == "base"):
            value = self.iri(*m.span(2)).value
            if name == "base":
                self.base = value
            else:
                self.prefixes[m.group(1)] = value
            return m.end()
        # _DIRECTIVE reads every declaration that the tokens below accept,
        # so they only find this one's error: the prefixed name, whose
        # local part must then be the IRI, the IRI or the '.'
        if name == "prefix":
            m = self.token(text, pos)
            if not m or m.lastgroup != "local":
                self.error("expected ':' in @prefix declaration", self.skip(pos))
            pos = m.start("local")
        iri = self.token(text, pos)
        if not iri or iri.lastgroup != "iri":
            self.fail(self.skip(pos), "@" + name)
        self.iri(*iri.span("iri"))
        self.error(f"expected '.' after @{name} declaration", self.skip(iri.end()))

    # -- statements

    def run(self) -> Graph:
        """Read the document statement by statement."""
        text, token = self.text, self.token
        pos = 0
        while True:
            m = token(text, pos)
            kind = m and m.lastgroup
            if kind == "directive":
                pos = self.directive(m.group(kind), m.end())
                continue
            if kind == "open":
                subject, pos = self.node(m)
                m = token(text, pos)
                if m and m.lastgroup == "dot":
                    pos = m.end()
                    continue
            elif kind == "local" or kind == "iri" or kind == "bnode":
                subject, pos = self.token_term(m, kind), m.end()
            elif self.skip(pos) == len(text):
                return Graph(self.triples)
            else:
                self.fail(self.skip(pos), "subject")
            pos = self.predicate_objects(pos, subject, "dot")

    def node(self, m: re.Match) -> tuple[BlankNode, int]:
        """The anonymous node whose '[' is the token ``m``, and the offset
        after its ']'."""
        if self.depth == MAX_NESTING:
            self.error(f"anonymous nodes nested deeper than {MAX_NESTING} levels", m.end() - 1)
        self.depth += 1
        node = self.fresh_bnode()
        pos = m.end()
        m = self.token(self.text, pos)
        if m and m.lastgroup == "close":
            pos = m.end()
        else:
            pos = self.predicate_objects(pos, node, "close")
        self.depth -= 1
        return node, pos

    def predicate_objects(self, pos: int, subject: Iri | BlankNode, closer: str) -> int:
        """Read the predicate-object list of ``subject`` from ``pos``
        through its ``closer`` token ('.' or ']'); return the offset after
        it."""
        text, token, append = self.text, self.token, self.triples.append
        m = token(text, pos)
        kind = m and m.lastgroup
        while True:
            if kind == "a":
                verb = RDF_TYPE
            elif kind == "local" or kind == "iri":
                verb = self.token_term(m, kind)
            else:
                self.fail(self.skip(pos), "predicate")
            pos = m.end()
            while True:
                m = token(text, pos)
                kind = m and m.lastgroup
                if kind == "open":
                    obj, pos = self.node(m)
                else:
                    obj = self.token_term(m, kind)
                    if obj is None:
                        # '.5' is a number where the grammar wants a term
                        m = kind == "dot" and re.compile(_NUMBER).match(text, m.start(kind))
                        if not m:
                            self.fail(self.skip(pos), "object")
                        obj = self.token_term(m, "number")
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
                self.error(f"expected {_CLOSING[closer]}", self.skip(pos))
            # any run of ';' may separate pairs or end the list
            while kind == "semi":
                pos = m.end()
                m = token(text, pos)
                kind = m and m.lastgroup
            if kind == closer:
                return m.end()
            # the end of the input ends the list too, which leaves it unclosed
            if kind is None and self.skip(pos) == len(text):
                self.error(f"expected {_CLOSING[closer]}", len(text))


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
    # the suffix as PurePath reads it: from the last '.', unless that starts the name
    name = os.path.basename(filename)
    dot = name.rfind(".")
    suffix = name[dot:].lower() if dot > 0 else ""
    if suffix in EXTENSION_LABELS:
        return EXTENSION_LABELS[suffix]
    raise UnknownFormatError(f"unknown format: no detection rule matched {filename!r}")
