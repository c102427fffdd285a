"""Seeded inputs and expected outputs for the ontocite benchmark.

Everything here derives from the seed by this module's own code: the
triples, their Turtle and N-Triples renderings, and every expected output
(citation text, diagnostic codes, network report, N-Triples lines,
check-mutual verdicts, parse-error positions).  This module never imports
ontocite; the rules it applies are the documented ones (README, docstrings,
``docs/grammar.abnf``).

Write one workload's inputs and plan to a directory:

    python3 perfbench/gen.py --workload big-onto --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import string
import sys

WORKLOADS = ("big-onto", "onto-corpus", "citation-text")

# --- terms ---------------------------------------------------------------------
# ("I", iri) | ("B", label) | ("L", lexical, lang or None, datatype iri or None)

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"
DCTERMS = "http://purl.org/dc/terms/"
DC = "http://purl.org/dc/elements/1.1/"
FOAF = "http://xmlns.com/foaf/0.1/"
PAV = "http://purl.org/pav/"
SKOS = "http://www.w3.org/2004/02/skos/core#"
SCHEMA = "http://schema.org/"
OMV = "http://omv.ontoware.org/2005/05/ontology#"
VANN = "http://purl.org/vocab/vann/"
REVISION = "http://purl.org/ontocite/revision"

PREFIXES = {
    "rdf": RDF, "rdfs": RDFS, "owl": OWL, "xsd": XSD, "dcterms": DCTERMS, "dc": DC,
    "foaf": FOAF, "pav": PAV, "skos": SKOS, "schema": SCHEMA, "omv": OMV, "vann": VANN,
}

TYPE = ("I", RDF + "type")
ONTOLOGY = ("I", OWL + "Ontology")
KNOWN_FORMATS = ("rdf/xml", "owl/xml", "obo", "n3", "turtle", "n-triples")


def I(value):  # noqa: E743 - term constructor, named after the RDF kind
    return ("I", value)


def L(lexical, lang=None, datatype=None):
    return ("L", lexical, lang, datatype)


# --- N-Triples rendering (canonical form) -------------------------------------

_NT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def nt_lexical(text):
    out = []
    for ch in text:
        if ch in _NT_ESCAPES:
            out.append(_NT_ESCAPES[ch])
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append("\\u%04X" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def nt_term(term):
    kind = term[0]
    if kind == "I":
        return "<" + term[1] + ">"
    if kind == "B":
        return "_:" + term[1]
    body = '"' + nt_lexical(term[1]) + '"'
    if term[2] is not None:
        return body + "@" + term[2]
    if term[3] is not None:
        return body + "^^<" + term[3] + ">"
    return body


def nt_line(triple):
    return "%s %s %s .\n" % (nt_term(triple[0]), nt_term(triple[1]), nt_term(triple[2]))


def canonical_ntriples(triples):
    """The sorted, de-duplicated N-Triples text of a triple set (ordering key:
    the N-Triples tokens of subject, predicate and object)."""
    keyed = sorted({tuple(nt_term(x) for x in t) for t in triples})
    return "".join("%s %s %s .\n" % k for k in keyed)


# --- Turtle writing -----------------------------------------------------------
# A document is a list of blocks (subject, [(predicate, [object, ...]), ...]).
# An object may be a nested block with subject None: an anonymous [ ... ] node.

_PN_LOCAL_RE = re.compile(r"^[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?$")
_BARE_NUMBER = {
    XSD + "integer": re.compile(r"^[+-]?\d+$"),
    XSD + "decimal": re.compile(r"^[+-]?\d+\.\d+$"),
    XSD + "double": re.compile(r"^[+-]?\d+(?:\.\d+)?[eE][+-]?\d+$"),
}
# Characters written as \u escapes in Turtle (and raw in N-Triples).
_U_ESCAPED = set("éüñ")
_SHORT_ECHARS = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


class TurtleWriter:
    def __init__(self, prefixes):
        self.prefixes = dict(prefixes)
        self._by_length = sorted(self.prefixes.items(), key=lambda kv: -len(kv[1]))

    def iri(self, value):
        for prefix, ns in self._by_length:
            if value.startswith(ns) and _PN_LOCAL_RE.match(value[len(ns):]):
                return prefix + ":" + value[len(ns):]
        body = "".join("\\u%04X" % ord(ch) if ch in _U_ESCAPED else ch for ch in value)
        return "<" + body + ">"

    def literal(self, term):
        _, lexical, lang, datatype = term
        if datatype in _BARE_NUMBER and _BARE_NUMBER[datatype].match(lexical):
            return lexical
        if datatype == XSD + "boolean" and lexical in ("true", "false"):
            return lexical
        if "\n" in lexical and '"""' not in lexical and not lexical.endswith('"') \
                and "\\" not in lexical and "\r" not in lexical:
            body = '"""' + "".join(
                "\\u%04X" % ord(ch) if ch in _U_ESCAPED else ch for ch in lexical) + '"""'
        else:
            out = []
            for ch in lexical:
                if ch in _SHORT_ECHARS:
                    out.append(_SHORT_ECHARS[ch])
                elif ch in _U_ESCAPED:
                    out.append("\\u%04X" % ord(ch))
                elif ord(ch) > 0xFFFF:
                    out.append("\\U%08X" % ord(ch))
                else:
                    out.append(ch)
            body = '"' + "".join(out) + '"'
        if lang is not None:
            # the primary subtag is case-insensitive; write it upper-case for French
            head, sep, rest = lang.partition("-")
            return body + "@" + (head.upper() if head == "fr" else head) + sep + rest
        if datatype is not None:
            return body + "^^" + self.iri(datatype)
        return body

    def term(self, term, indent):
        if isinstance(term, list):
            return self.anon(term, indent)
        if term[0] == "I":
            return self.iri(term[1])
        if term[0] == "B":
            return "_:" + term[1]
        return self.literal(term)

    def anon(self, block, indent):
        _, pairs = block
        pad = " " * (indent + 4)
        inner = (" ;\n" + pad).join(self.pairs(pairs, indent + 4))
        return "[ " + inner + " ]"

    def pairs(self, pairs, indent):
        out = []
        for predicate, objects in pairs:
            verb = "a" if predicate == TYPE else self.iri(predicate[1])
            out.append(verb + " " + " , ".join(self.term(o, indent) for o in objects))
        return out

    def document(self, blocks):
        lines = ["@prefix %s: <%s> ." % (p, ns) for p, ns in self.prefixes.items()]
        lines.append("")
        for subject, pairs in blocks:
            head = self.term(subject, 0)
            lines.append(head + " " + " ;\n    ".join(self.pairs(pairs, 4)) + " .")
            lines.append("")
        return "\n".join(lines)


def flatten(blocks):
    """Triples of a block document, in document order.  Anonymous nodes get
    labels b1, b2, ... in the order their '[' appears (pre-order)."""
    triples = []
    counter = [0]

    def subject_pairs(subject, pairs):
        for predicate, objects in pairs:
            for obj in objects:
                if isinstance(obj, list):
                    counter[0] += 1
                    node = ("B", "b%d" % counter[0])
                    triples.append((subject, predicate, node))
                    subject_pairs(node, obj[1])
                else:
                    triples.append((subject, predicate, obj))

    for subject, pairs in blocks:
        subject_pairs(subject, pairs)
    return triples


# --- the generator's own readers (used by its tests) ---------------------------

_TTL_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^>]*>)
  | (?P<long>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\")
  | (?P<short>"(?:[^"\\\n]|\\.)*")
  | (?P<lang>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<dt>\^\^)
  | (?P<bnode>_:[A-Za-z0-9_]+)
  | (?P<number>[+-]?(?:\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+))
  | (?P<pname>[A-Za-z][A-Za-z0-9_\-]*:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?)
  | (?P<word>[A-Za-z]+)
  | (?P<punct>[\[\];,.])
""", re.VERBOSE)

_UNESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)", re.DOTALL)
_ECHAR_VALUES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
                 '"': '"', "'": "'", "\\": "\\"}


def _unescape(text):
    def replace(m):
        code = m.group(1)
        if code[0] in "uU" and len(code) > 1:
            return chr(int(code[1:], 16))
        return _ECHAR_VALUES[code]
    return _UNESCAPE_RE.sub(replace, text)


def read_turtle(text):
    """The triple set of a Turtle document in the subset this module writes."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text.startswith("@prefix", pos):
            end = text.index(".\n", pos)
            name, iri = re.match(r"@prefix\s+([A-Za-z0-9_\-]*):\s*<([^>]*)>\s*", text[pos:end + 1]).groups()
            tokens.append(("prefix", (name, iri)))
            pos = end + 1
            continue
        m = _TTL_TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError("unreadable Turtle at offset %d" % pos)
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group()))
    prefixes = {}
    reserved = set(re.findall(r"_:([A-Za-z0-9_]+)", text))
    triples = set()
    state = {"i": 0, "anon": 0}

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else (None, None)

    def take():
        tok = tokens[state["i"]]
        state["i"] += 1
        return tok

    def fresh():
        while True:
            state["anon"] += 1
            label = "b%d" % state["anon"]
            if label not in reserved:
                return ("B", label)

    def iri_of(tok):
        kind, value = tok
        if kind == "iri":
            return ("I", _unescape(value[1:-1]))
        prefix, _, local = value.partition(":")
        return ("I", prefixes[prefix] + local)

    def obj():
        kind, value = peek()
        if kind == "punct" and value == "[":
            take()
            node = fresh()
            if peek() != ("punct", "]"):
                pairs(node)
            take()
            return node
        take()
        if kind in ("iri", "pname"):
            return iri_of((kind, value))
        if kind == "bnode":
            return ("B", value[2:])
        if kind == "number":
            dt = "double" if "e" in value.lower() else "decimal" if "." in value else "integer"
            return L(value, None, XSD + dt)
        if kind == "word" and value in ("true", "false"):
            return L(value, None, XSD + "boolean")
        if kind in ("short", "long"):
            cut = 3 if kind == "long" else 1
            lexical = _unescape(value[cut:-cut])
            if peek()[0] == "lang":
                tag = take()[1][1:]
                head, sep, rest = tag.partition("-")
                return L(lexical, head.lower() + sep + rest)
            if peek()[0] == "dt":
                take()
                return L(lexical, None, iri_of(take())[1])
            return L(lexical)
        raise ValueError("unexpected token %r" % (value,))

    def pairs(subject):
        while True:
            verb = take()
            predicate = TYPE if verb == ("word", "a") else iri_of(verb)
            while True:
                triples.add((subject, predicate, obj()))
                if peek() == ("punct", ","):
                    take()
                    continue
                break
            if peek() == ("punct", ";"):
                take()
                if peek() in (("punct", "."), ("punct", "]")):
                    return
                continue
            return

    while state["i"] < len(tokens):
        kind, value = take()
        if kind == "prefix":
            prefixes[value[0]] = value[1]
            continue
        subject = ("B", value[2:]) if kind == "bnode" else iri_of((kind, value))
        pairs(subject)
        take()  # '.'
    return triples


_NT_LINE_RE = re.compile(
    r'^(<[^>]*>|_:[A-Za-z0-9_]+) (<[^>]*>) '
    r'(<[^>]*>|_:[A-Za-z0-9_]+|"(?:[^"\\]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*|\^\^<[^>]*>)?) \.$')


def _nt_read_term(token):
    if token.startswith("<"):
        return ("I", _unescape(token[1:-1]))
    if token.startswith("_:"):
        return ("B", token[2:])
    close = token.rindex('"')
    lexical = _unescape(token[1:close])
    tail = token[close + 1:]
    if tail.startswith("@"):
        head, sep, rest = tail[1:].partition("-")
        return L(lexical, head.lower() + sep + rest)
    if tail.startswith("^^"):
        return L(lexical, None, tail[3:-1])
    return L(lexical)


def read_ntriples(text):
    """The triple set of an N-Triples document, one statement per line."""
    triples = set()
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _NT_LINE_RE.match(line)
        if not m:
            raise ValueError("unreadable N-Triples line %d" % number)
        triples.add(tuple(_nt_read_term(t) for t in m.groups()))
    return triples


# --- citation records and their renderings -------------------------------------
# A record is a dict: creators [[surname, initials or None, organization]],
# date, full_name, uri, acronym, version, revision, formats [labels].


def render_agent(agent):
    surname, initials, organization = agent
    if organization or not initials:
        return surname
    return "%s, %s" % (surname, initials)


def render_creators(creators):
    rendered = [render_agent(a) for a in creators]
    if len(rendered) == 1:
        return rendered[0]
    return ", ".join(rendered[:-1]) + " and " + rendered[-1]


def title_text(rec):
    return "%s: %s" % (rec["acronym"], rec["full_name"]) if rec["acronym"] else rec["full_name"]


def version_text(rec):
    if rec["revision"]:
        return "%s(%s)" % (rec["version"], rec["revision"])
    return rec["version"] or ""


def render_canonical(rec):
    parts = ["%s (%s)." % (render_creators(rec["creators"]), rec["date"]), title_text(rec) + "."]
    if rec["version"]:
        parts.append(version_text(rec) + ".")
    parts.append(rec["uri"])
    if rec["formats"]:
        parts.append("[" + ", ".join(rec["formats"]) + "]")
    return " ".join(parts)


def render_bibtex(rec):
    slug = re.sub(r"[^A-Za-z0-9]+", "-", rec["full_name"]).strip("-").lower()
    key = (rec["acronym"] or slug) + rec["date"][:4]
    year, month, day = rec["date"].split("-")
    authors = []
    for surname, initials, organization in rec["creators"]:
        if organization:
            authors.append("{" + surname + "}")
        elif initials:
            authors.append("%s, %s" % (surname, initials))
        else:
            authors.append(surname)
    fields = [("author", " and ".join(authors)), ("title", title_text(rec)), ("year", year),
              ("month", month), ("day", day), ("howpublished", rec["uri"])]
    notes = []
    if rec["version"]:
        notes.append("version " + version_text(rec))
    if rec["formats"]:
        notes.append(", ".join(rec["formats"]))
    if notes:
        fields.append(("note", ", ".join(notes)))
    lines = ["@misc{%s," % key]
    lines.extend("  %s = {%s}," % kv for kv in fields[:-1])
    lines.append("  %s = {%s}" % fields[-1])
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_json(rec):
    creators = []
    for surname, initials, organization in rec["creators"]:
        entry = {"surname": surname}
        if initials:
            entry["initials"] = initials
        entry["organization"] = organization
        creators.append(entry)
    data = {"creators": creators, "date": rec["date"]}
    if rec["acronym"]:
        data["acronym"] = rec["acronym"]
    data["full_name"] = rec["full_name"]
    if rec["version"]:
        data["version"] = rec["version"]
    if rec["revision"]:
        data["revision"] = rec["revision"]
    data["uri"] = rec["uri"]
    data["formats"] = list(rec["formats"])
    return json.dumps(data, ensure_ascii=False, indent=2) + "\n"


def render_style(rec, style):
    if style == "canonical":
        return render_canonical(rec) + "\n"
    if style == "bibtex":
        return render_bibtex(rec)
    return render_json(rec)


def real_date(date):
    year, month, day = (int(x) for x in date.split("-"))
    if not 1 <= month <= 12:
        return False
    days = [31, 29 if (year % 4 == 0 and year % 100 != 0) or year % 400 == 0 else 28,
            31, 30, 31, 30, 31, 31, 30, 31, 30, 31][month - 1]
    return 1 <= day <= days


def record_codes(fields):
    """Diagnostic codes the validator reports for a (partial) field set,
    in its output order (sorted by code)."""
    codes = []
    if not fields.get("creators"):
        codes.append("E-CREATOR-MISSING")
    if not fields.get("date"):
        codes.append("E-DATE-MISSING")
    elif not real_date(fields["date"]):
        codes.append("E-DATE-FORMAT")
    if not fields.get("full_name"):
        codes.append("E-TITLE-MISSING")
    if not fields.get("creators") and not fields.get("date") and not fields.get("full_name"):
        codes.append("E-URI-ONLY")
    if not fields.get("version"):
        codes.append("W-VERSION-MISSING")
    if not fields.get("formats"):
        codes.append("W-FORMAT-MISSING")
    for label in fields.get("formats") or ():
        if label not in KNOWN_FORMATS:
            codes.append("W-FORMAT-UNKNOWN")
    return sorted(codes)


# --- name material -------------------------------------------------------------

GIVEN = ["Paolo", "Stian", "Ana", "Émile", "Jürgen", "Li", "Mei", "Kwame", "Olga", "Sofia",
         "Tomás", "Ines", "Raj", "Yuki", "Lars", "Chloé", "Ömer", "Nadia", "Jean-Luc", "Amara"]
# The citation grammar's initials are ASCII capitals (docs/grammar.abnf:
# initial = UPALPHA "."), so citation strings draw given names from these.
GIVEN_ASCII = [g for g in GIVEN if g[0].isascii()]
SURNAMES = ["Ciccarese", "Soiland-Reyes", "García", "Müller", "Okafor", "Nakamura", "O'Neil",
            "Smith", "Dubois", "Kowalski", "Haddad", "Ivanova", "Rossi", "Chen", "Larsen",
            "Belhajjame", "Goble", "Clark", "Mungall", "Vrandečić"]
PARTICLE_SURNAMES = ["van der Berg", "de la Cruz", "von Bülow"]
MONONYMS = ["Plato", "Hypatia", "Avicenna", "Herodotus"]
ORGS = ["Gene Ontology Consortium", "Open Biomedical Ontologies Foundry",
        "World Wide Web Consortium", "Provenance Working Group",
        "Dublin Core Metadata Initiative", "Plant Ontology Group",
        "Environment Ontology Team", "Industrial Ontologies Foundry"]
WORDS = ["Provenance", "Authoring", "Versioning", "Gene", "Cell", "Anatomy", "Phenotype",
         "Environment", "Chemical", "Entities", "Process", "Units", "Measurement", "Plant",
         "Disease", "Sequence", "Protein", "Material", "Event", "Time", "Space", "Agent",
         "Relation", "Quality", "Habitat", "Experimental", "Factor", "Evidence", "Role",
         "Information", "Artifact", "Device", "Sample", "Observation", "Biological",
         "Molecular", "Function", "Component", "Taxonomic", "Rank"]
LOWER_WORDS = [w.lower() for w in WORDS] + ["of", "the", "and", "for", "with", "a", "in"]
JOURNALS = ["Journal of Biomedical Semantics", "Database", "Bioinformatics",
            "Nucleic Acids Research", "Semantic Web", "Applied Ontology", "PLoS ONE"]


def initials_of(given):
    return " ".join(tok[0].upper() + "." for tok in given.split() if tok[0].isalpha())


def person_agent(rng, given_names=GIVEN):
    """(name literal as written, normalized agent)."""
    given = " ".join(rng.sample(given_names, rng.choice((1, 1, 1, 2))))
    form = rng.random()
    if form < 0.15:
        surname = rng.choice(PARTICLE_SURNAMES)
        return "%s, %s" % (surname, given), [surname, initials_of(given), False]
    surname = rng.choice(SURNAMES)
    if form < 0.5:
        return "%s, %s" % (surname, given), [surname, initials_of(given), False]
    return "%s %s" % (given, surname), [surname, initials_of(given), False]


def sort_agents(agents):
    return sorted(agents, key=lambda a: (a[0], a[1] or ""))


def title_words(rng, low, high):
    return " ".join(rng.sample(WORDS, rng.randint(low, high)))


def acronym_for(rng):
    return "".join(rng.choice(string.ascii_uppercase) for _ in range(rng.randint(2, 5)))


def random_date(rng, low=1995, high=2024):
    return "%04d-%02d-%02d" % (rng.randint(low, high), rng.randint(1, 12), rng.randint(1, 28))


def split_title(title):
    """The acronym/name split of a title: a short leading token before a
    dash, en-dash or colon, with no all-lower-case word."""
    for i, ch in enumerate(title):
        if ch not in "-–:":
            continue
        token, rest = title[:i].strip(), title[i + 1:].strip()
        if not token or not rest or len(token) > 10:
            continue
        if any(word.islower() for word in token.split()):
            continue
        return token, rest
    return None


def preferred_literal(values):
    """Language choice: "en", else the first language tag, else untagged."""
    english = sorted(lex for lex, lang in values if lang == "en")
    if english:
        return english[0]
    tagged = sorted((lang, lex) for lex, lang in values if lang is not None)
    if tagged:
        return tagged[0][1]
    return sorted(lex for lex, _ in values)[0]


# --- ontology headers -----------------------------------------------------------


class Header:
    """One ontology header: its blocks and the record its fields yield."""

    def __init__(self, iri):
        self.iri = iri
        self.top = []        # (predicate, [objects]) on the ontology node, written first
        self.bottom = []     # (predicate, [objects]) on the ontology node, written last
        self.extra = []      # further blocks (agent nodes)
        self.missing = None  # mandatory field left out on purpose
        self.fields = {}     # validator field set (draft form)
        self.record = None   # citation record when the header is complete
        self.references = []  # ("iri", target) | ("literal", text, target or None)
        self.imports = []
        self.ontology_side = False


def make_header(rng, iri, label, others=(), missing=None):
    """A seeded ontology header.  ``others`` are (iri, record) pairs it may
    import or reference; ``missing`` names a mandatory field to leave out."""
    h = Header(iri)
    h.missing = missing
    top, bottom = h.top, h.bottom
    top.append((TYPE, [ONTOLOGY]))

    # title and acronym
    title = None
    acronym_split = None
    if missing != "title":
        acronym = acronym_for(rng)
        name = title_words(rng, 2, 5)
        shape = rng.random()
        if shape < 0.35:
            en_title = "%s %s %s" % (acronym, rng.choice(("-", "–", ":")), name)
        else:
            en_title = name
        langs = rng.random()
        if langs < 0.7:
            values = [(en_title, "en"), (title_words(rng, 2, 4), rng.choice(("de", "fr", "es")))]
        elif langs < 0.85:
            values = [(en_title, None)]
        else:
            values = [(en_title, "fr"), (title_words(rng, 2, 4), "it")]
        prop = rng.choice((DCTERMS + "title",) * 4 + (DC + "title", RDFS + "label"))
        top.append((I(prop), [L(lex, lang) for lex, lang in values]))
        title = preferred_literal(values)
        split = split_title(title)
        explicit = None
        choice = rng.random()
        if choice < 0.2:
            explicit = acronym
            top.append((I(OMV + "acronym"), [L(" %s " % acronym)]))
        elif choice < 0.3:
            explicit = acronym
            top.append((I(VANN + "preferredNamespacePrefix"), [L(acronym.lower())]))
        if explicit:
            if split and split[0].casefold() == explicit.casefold():
                acronym_split = (explicit, split[1])
            else:
                acronym_split = (explicit, title)
        elif split:
            acronym_split = split
        else:
            acronym_split = (None, title)

    # creators
    creators = []
    if missing != "creator":
        prop = I(rng.choice((DCTERMS + "creator",) * 5 + (DC + "creator", PAV + "createdBy")))
        objects = []
        for index in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.55:
                literal, agent = person_agent(rng)
                objects.append(L(literal))
            elif kind < 0.7:
                given, surname = rng.choice(GIVEN), rng.choice(SURNAMES)
                agent = [surname, initials_of(given), False]
                if rng.random() < 0.5:
                    objects.append([None, [(TYPE, [I(FOAF + "Person")]),
                                           (I(FOAF + "name"), [L("%s %s" % (given, surname))])]])
                else:
                    objects.append([None, [(I(FOAF + "givenName"), [L(given)]),
                                           (I(FOAF + "familyName"), [L(surname)])]])
            elif kind < 0.8:
                name = rng.choice(MONONYMS)
                objects.append(L(name))
                agent = [name, None, False]
            else:
                name = rng.choice(ORGS)
                node = I("%s#org%d" % (iri.rstrip("/#"), index))
                org_type = rng.choice((FOAF + "Organization", SCHEMA + "Organization"))
                name_prop = rng.choice((FOAF + "name", RDFS + "label"))
                h.extra.append((node, [(TYPE, [I(org_type)]), (I(name_prop), [L(name)])]))
                objects.append(node)
                agent = [name, None, True]
            if agent not in creators:
                creators.append(agent)
            else:
                objects.pop()
        top.append((prop, objects))
        creators = sort_agents(creators)

    # date
    date = None
    if missing != "date":
        ladder = (DCTERMS + "issued", PAV + "createdOn", DCTERMS + "created",
                  PAV + "lastUpdateOn", DCTERMS + "modified")
        rung = rng.choice((0, 0, 0, 1, 2, 3))
        dates = sorted(random_date(rng) for _ in range(rng.choice((1, 1, 2))))
        objects = []
        for d in dates:
            form = rng.random()
            if form < 0.5:
                objects.append(L(d))
            elif form < 0.75:
                objects.append(L(d, None, XSD + "date"))
            else:
                objects.append(L("%sT%02d:%02d:00Z" % (d, rng.randint(0, 23), rng.randint(0, 59)),
                                 None, XSD + "dateTime"))
        top.append((I(ladder[rung]), objects))
        if rung < 4 and rng.random() < 0.3:
            later = ladder[rng.randint(rung + 1, 4)]
            bottom.append((I(later), [L(random_date(rng, 1990, 1994))]))
        date = dates[0]

    # version and revision
    version = revision = None
    if rng.random() < 0.9:
        number = ".".join(str(rng.randint(0, 12)) for _ in range(rng.randint(1, 3)))
        form = rng.random()
        if form < 0.5:
            bottom.append((I(OWL + "versionInfo"), [L(number)]))
            version = number
        elif form < 0.7:
            bottom.append((I(OWL + "versionInfo"),
                           [L("Release  v%s of %s" % (number, random_date(rng)))]))
            version = "v" + number
        else:
            bottom.append((I(rng.choice((PAV + "version", SCHEMA + "version"))), [L(number)]))
            version = number
        if rng.random() < 0.3:
            revision = "r%d" % rng.randint(1, 999)
            bottom.append((I(REVISION), [L(revision)]))

    top.append((I(DCTERMS + "publisher"), [I("http://publisher.example.org/%s" % label)]))

    # imports and references to other ontologies
    if others:
        imports = rng.sample(others, min(len(others), rng.randint(0, 2)))
        if imports:
            bottom.append((I(OWL + "imports"), [I(o[0]) for o in imports]))
            h.imports = [o[0] for o in imports]
        for _ in range(rng.randint(0, 2)):
            target, record = rng.choice(others)
            if rng.random() < 0.4 or record is None:
                h.references.append(("iri", target))
                bottom.append((I(DCTERMS + "references"), [I(target)]))
            else:
                text = render_canonical(record)
                if rng.random() < 0.3:
                    text = text.replace(" " + record["uri"], " <%s>" % record["uri"])
                h.references.append(("literal", text, target))
                bottom.append((I(DCTERMS + "references"), [L(text, "en")]))
    if rng.random() < 0.8:
        text = free_reference(rng)
        # legacy dc:relation counts for check-mutual's ontology side, not for network
        legacy = rng.random() < 0.1
        bottom.append((I(DC + "relation" if legacy else DCTERMS + "references"), [L(text, "en")]))
        if not legacy:
            h.references.append(("literal", text, None))
    h.ontology_side = any(
        p[1] in (DCTERMS + "references", DC + "relation") and any(o[0] == "L" for o in objs)
        for p, objs in bottom)

    fields = {"uri": iri}
    if creators:
        fields["creators"] = creators
    if date:
        fields["date"] = date
    if acronym_split:
        fields["acronym"], fields["full_name"] = acronym_split
    if version:
        fields["version"] = version
    h.fields = fields
    if creators and date and title:
        h.record = {"creators": creators, "date": date, "full_name": acronym_split[1],
                    "uri": iri, "acronym": acronym_split[0], "version": version,
                    "revision": revision if version else None, "formats": []}
    return h


def free_reference(rng):
    """A publication reference in a journal's house style (never a canonical
    ontology citation)."""
    authors = ", ".join("%s %s" % (rng.choice(SURNAMES), rng.choice(string.ascii_uppercase))
                        for _ in range(rng.randint(1, 4)))
    return "%s. %s %s. %s %d;%d:%d-%d. doi:10.%d/%s" % (
        authors, title_words(rng, 3, 6).capitalize(), "ontology", rng.choice(JOURNALS),
        rng.randint(1995, 2024), rng.randint(1, 40), rng.randint(1, 900), rng.randint(901, 999),
        rng.randint(1000, 9999), "".join(rng.choice(string.ascii_lowercase) for _ in range(8)))


def header_blocks(h):
    return [(I(h.iri), h.top)] + h.extra + ([(I(h.iri), h.bottom)] if h.bottom else [])


def with_format(record, label):
    rec = dict(record)
    rec["formats"] = [label]
    return rec


def cli_expect_cite(h, label, style):
    if h.record is None:
        return {"exit": 2, "stderr_has": "missing mandatory citation field: %s" % h.missing}
    return {"exit": 0, "stdout": render_style(with_format(h.record, label), style)}


def cli_expect_validate(h, label):
    fields = dict(h.fields)
    fields["formats"] = [label]
    codes = record_codes(fields)
    return {"exit": 1 if any(c.startswith("E-") for c in codes) else 0, "codes": codes}


# --- big-onto ------------------------------------------------------------------

# About 5,000 body triples, so that each operation takes 0.2-0.7 s: the
# machine changes speed within a second, and scaling to the reference
# speed (calib.py) cannot follow a change in the middle of one operation.
BIG_ENTITIES = 700


def body_blocks(rng, ns, count):
    """Ontology body: classes and properties with the Turtle features the
    parser must handle."""
    blocks = []
    props = [I(ns + name) for name in ("partOf", "hasPart", "hasWeight", "hasCount",
                                        "isActive", "code", "derivesFrom")]
    blocks.append((props[0], [(TYPE, [I(OWL + "ObjectProperty"), I(OWL + "TransitiveProperty")]),
                              (I(RDFS + "label"), [L("part of", "en")])]))
    for i in range(count):
        subject = I("%sE%05d" % (ns, i))
        pairs = [(TYPE, [I(OWL + "Class")])]
        labels = [L("%s %d" % (" ".join(rng.sample(LOWER_WORDS, 2)), i), "en")]
        if rng.random() < 0.4:
            labels.append(L("%s %d" % (rng.choice(WORDS), i), rng.choice(("de", "fr", "en-GB"))))
        pairs.append((I(RDFS + "label"), labels))
        if i:
            parents = sorted({rng.randrange(i) for _ in range(rng.choice((1, 1, 2)))})
            pairs.append((I(RDFS + "subClassOf"), [I("%sE%05d" % (ns, p)) for p in parents]))
        r = rng.random()
        if r < 0.25:
            text = "%s.\nSee also \"%s\" and the %s." % (
                " ".join(rng.sample(LOWER_WORDS, 6)).capitalize(), rng.choice(WORDS),
                " ".join(rng.sample(LOWER_WORDS, 3)))
            pairs.append((I(SKOS + "definition"), [L(text, "en")]))
        elif r < 0.5:
            text = "café %s \"%s\"\t\\ naïve %d" % (rng.choice(WORDS), rng.choice(WORDS), i)
            pairs.append((I(RDFS + "comment"), [L(text)]))
        if rng.random() < 0.3:
            pairs.append((props[2], [L("%d.%02d" % (rng.randint(0, 999), rng.randint(0, 99)),
                                       None, XSD + "decimal")]))
        if rng.random() < 0.3:
            pairs.append((props[3], [L(str(rng.randint(-50, 5000)), None, XSD + "integer")]))
        if rng.random() < 0.15:
            pairs.append((props[4], [L(rng.choice(("true", "false")), None, XSD + "boolean")]))
        if rng.random() < 0.1:
            pairs.append((I(ns + "score"), [L("%d.%de%d" % (rng.randint(1, 9), rng.randint(0, 9),
                                                            rng.randint(-3, 3)), None, XSD + "double")]))
        if rng.random() < 0.2:
            pairs.append((I(DCTERMS + "created"),
                          [L("%sT10:%02d:00" % (random_date(rng), rng.randint(0, 59)),
                             None, XSD + "dateTime")]))
        if rng.random() < 0.15:
            pairs.append((I(RDFS + "seeAlso"),
                          [I("http://example.org/réf/%d" % rng.randint(0, 99999))]))
        if rng.random() < 0.1:
            pairs.append((props[5], [L("X-%d \U0001F9EC" % i)]))
        if i and rng.random() < 0.35:
            inner = [(TYPE, [I(OWL + "Restriction")]), (I(OWL + "onProperty"), [props[0]])]
            target = I("%sE%05d" % (ns, rng.randrange(i)))
            if rng.random() < 0.3:
                inner.append((I(OWL + "someValuesFrom"),
                              [[None, [(TYPE, [I(OWL + "Class")]),
                                       (I(OWL + "intersectionOf"), [target]),
                                       (I(RDFS + "label"), [L("anonymous %d" % i, "en")])]]]))
            else:
                inner.append((I(OWL + "someValuesFrom"), [target]))
            pairs.append((I(RDFS + "subClassOf"), [[None, inner]]))
        if rng.random() < 0.05:
            pairs.append((props[6], [("B", "n%d" % i)]))
            blocks.append((("B", "n%d" % i), [(TYPE, [I(OWL + "NamedIndividual")]),
                                              (I(RDFS + "label"), [L("individual %d" % i)])]))
        blocks.append((subject, pairs))
    return blocks


def pav_like_header(rng, iri):
    """A header shaped like PAV's (two person creators, an acronym-split
    English title with a translation, issued date, version, publisher,
    homepage, an import and a publication reference); only its values
    depend on the seed, so every seed costs extraction the same lookups."""
    h = Header(iri)
    acronym, name = acronym_for(rng), title_words(rng, 3, 3)
    people = [person_agent(rng, GIVEN_ASCII) for _ in range(2)]
    while people[0][1] == people[1][1]:
        people[1] = person_agent(rng, GIVEN_ASCII)
    date, version = random_date(rng), "%d.%d.%d" % (rng.randint(1, 9), rng.randint(0, 9), rng.randint(0, 9))
    h.top = [(TYPE, [ONTOLOGY]),
             (I(DCTERMS + "title"), [L("%s - %s" % (acronym, name), "en"),
                                     L(title_words(rng, 2, 2), "de")]),
             (I(DCTERMS + "creator"), [L(literal) for literal, _ in people]),
             (I(DCTERMS + "issued"), [L(date)]),
             (I(DCTERMS + "publisher"), [I(iri + "publisher")]),
             (I(FOAF + "homepage"), [I(iri + "home")])]
    h.bottom = [(I(OWL + "versionInfo"), [L(version)]),
                (I(OWL + "imports"), [I("http://purl.obolibrary.org/obo/bfo.owl")]),
                (I(DCTERMS + "references"), [L(free_reference(rng), "en")])]
    h.record = {"creators": sort_agents([agent for _, agent in people]), "date": date,
                "full_name": name, "uri": iri, "acronym": acronym, "version": version,
                "revision": None, "formats": []}
    return h


def gen_big_onto(rng, out):
    iri = "http://purl.example.org/onto/%s/" % "".join(rng.choice(string.ascii_lowercase)
                                                      for _ in range(6))
    h = pav_like_header(rng, iri)
    ns = iri + "terms#"
    prefixes = dict(PREFIXES, ex=ns)
    blocks = [(I(iri), h.top)] + h.extra + body_blocks(rng, ns, BIG_ENTITIES) + [(I(iri), h.bottom)]
    writer = TurtleWriter(prefixes)
    ttl = writer.document(blocks)
    triples = flatten(blocks)
    nt = "".join(nt_line(t) for t in triples)
    header_ttl = TurtleWriter(PREFIXES).document(header_blocks(h))
    write(out, "big.ttl", ttl)
    write(out, "big.nt", nt)
    write(out, "header.ttl", header_ttl)
    reference = "%s Ontology paper. %s %d. doi:10.5555/%d" % (
        h.record["full_name"], rng.choice(JOURNALS), rng.randint(2000, 2024), rng.randint(1000, 9999))
    injected = triples + [(I(iri), I(DCTERMS + "references"), L(reference, "en"))]
    write(out, "expect/parse.nt", canonical_ntriples(triples))
    write(out, "expect/inject.nt", canonical_ntriples(injected))
    ttl_bytes, nt_bytes = size(out, "big.ttl"), size(out, "big.nt")
    block = [
        {"tag": "cite_ttl", "argv": ["cite", "big.ttl"], "bytes": ttl_bytes,
         "expect": cli_expect_cite(h, "turtle", "canonical")},
        {"tag": "cite_nt", "argv": ["cite", "big.nt", "--style", "bibtex"], "bytes": nt_bytes,
         "expect": cli_expect_cite(h, "n-triples", "bibtex")},
        {"tag": "convert", "argv": ["parse", "big.ttl"], "bytes": ttl_bytes,
         "expect": {"exit": 0, "stdout_file": "expect/parse.nt"}},
        {"tag": "inject", "argv": ["inject", "big.ttl", "--reference", reference, "--lang", "en",
                                   "--out", "injected.nt"], "bytes": ttl_bytes,
         "expect": {"exit": 0, "stdout": "", "out_file": "injected.nt",
                    "out_expected_file": "expect/inject.nt"}},
    ]
    setup = ["cite", "header.ttl"]
    return {"blocks": [block], "setup_argv": setup,
            "setup_expect": cli_expect_cite(h, "turtle", "canonical")}


# --- onto-corpus ----------------------------------------------------------------

CORPUS_FILES = 1000


def corrupt(rng, text, label):
    """Plant one syntax error in a header; returns (text, line, column)."""
    lines = text.split("\n")
    # the first statement line after the prefix block
    index = next(i for i, line in enumerate(lines) if line and not line.startswith("@prefix"))
    index += 1  # a predicate line of the ontology block (Turtle) or the second statement
    kind = rng.choice(("escape", "other"))
    if label == "turtle":
        if kind == "escape":
            bad = '    dcterms:description "bad \\q escape" ;'
            column = bad.index("\\") + 1
        else:
            bad = '    zz:note "undeclared prefix" ;'
            column = 5
        lines.insert(index, bad)
        return "\n".join(lines), index + 1, column
    subject = lines[index - 1].split(" ", 1)[0]
    if kind == "escape":
        bad = '%s <%sdescription> "bad \\q escape" .' % (subject, DCTERMS)
        column = bad.index("\\") + 1
    else:
        bad = '%s <%sbroken iri> "x" .' % (subject, DCTERMS)
        column = bad.index(" iri>") + 1
    lines.insert(index, bad)
    return "\n".join(lines), index + 1, column


def corpus_headers(rng, count, name, malformed_share=0.02, incomplete_share=0.02):
    """Headers for ``count`` files, half Turtle and half N-Triples."""
    entries = []
    known = []  # (iri, record) of earlier complete headers, for links
    for k in range(count):
        label = "turtle" if k % 2 == 0 else "n-triples"
        fname = "%s%04d.%s" % (name, k, "ttl" if label == "turtle" else "nt")
        iri = rng.choice(("http://purl.example.org/onto/%s%d.owl",
                          "https://w3id.org/%s%d/", "http://example.org/ont/%s-%d#"))
        iri = iri % (name, k)
        missing = rng.choice(("creator", "date", "title")) if rng.random() < incomplete_share else None
        pool = known[-60:] + [("http://purl.obolibrary.org/obo/bfo.owl", None)]
        h = make_header(rng, iri, "%s%d" % (name, k), others=pool if k else [], missing=missing)
        blocks = header_blocks(h)
        if label == "turtle":
            text = TurtleWriter(PREFIXES).document(blocks)
        else:
            text = "".join(nt_line(t) for t in flatten(blocks))
        error = None
        if rng.random() < malformed_share:
            text, line, column = corrupt(rng, text, label)
            error = (line, column)
        elif h.record is not None:
            known.append((iri, with_format(h.record, label)))
        entries.append({"file": fname, "label": label, "header": h, "text": text, "error": error})
    return entries


def network_expect(entries):
    edges = set()
    unparsed = []
    nodes = set()
    for e in entries:
        if e["error"]:
            continue
        h = e["header"]
        nodes.add(h.iri)
        for target in h.imports:
            if target != h.iri:
                edges.add((h.iri, target, "imports"))
        for ref in h.references:
            if ref[0] == "iri":
                edges.add((h.iri, ref[1], "references"))
            elif ref[2] is not None:
                edges.add((h.iri, ref[2], "references"))
            else:
                unparsed.append((h.iri, ref[1]))
    nodes.update(e[1] for e in edges)
    counts = {}
    for node in sorted(nodes):
        counts[node] = {"imports": 0, "references": 0}
    for _, dst, kind in edges:
        counts[dst][kind] += 1
    report = json.dumps({
        "counts": counts,
        "unparsed_references": [{"ontology": o, "text": t} for o, t in sorted(unparsed)],
    }, ensure_ascii=False, indent=2) + "\n"

    def quote(value):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph ontocite {"]
    lines.extend("  %s;" % quote(n) for n in sorted(nodes))
    for src, dst, kind in sorted(edges):
        style = "solid" if kind == "imports" else "dashed"
        lines.append("  %s -> %s [style=%s];" % (quote(src), quote(dst), style))
    lines.append("}")
    return report, "\n".join(lines) + "\n"


def file_ops(entries):
    """cite (styles in rotation) and validate on every file."""
    ops = []
    for k, e in enumerate(entries):
        h, label, nbytes = e["header"], e["label"], len(e["text"].encode("utf-8"))
        style = ("canonical", "bibtex", "json")[k % 3]
        argv = ["cite", e["file"]] + ([] if style == "canonical" else ["--style", style])
        if e["error"]:
            where = "line %d, column %d:" % e["error"]
            cite = validate = {"exit": 2, "stderr_has": where}
        else:
            cite = cli_expect_cite(h, label, style)
            validate = cli_expect_validate(h, label)
        ops.append({"tag": "cite", "argv": argv, "bytes": nbytes, "expect": cite})
        ops.append({"tag": "validate", "argv": ["validate", e["file"]], "bytes": nbytes,
                    "expect": validate})
    return ops


def gen_onto_corpus(rng, out):
    entries = corpus_headers(rng, CORPUS_FILES, "onto")
    for e in entries:
        write(out, e["file"], e["text"])
    report, dot = network_expect(entries)
    good = [e["file"] for e in entries if not e["error"]]
    good_bytes = sum(len(e["text"].encode("utf-8")) for e in entries if not e["error"])
    network = [
        {"tag": "network_counts", "argv": ["network"] + good + ["--counts"], "bytes": good_bytes,
         "expect": {"exit": 0, "stdout": report}},
        {"tag": "network_dot", "argv": ["network"] + good + ["--dot"], "bytes": good_bytes,
         "expect": {"exit": 0, "stdout": dot}},
    ]
    file_level = file_ops(entries)
    order = list(range(0, len(file_level), 2))
    rng.shuffle(order)
    files = [op for k in order for op in file_level[k:k + 2]]
    half = len(files) // 2
    blocks = [[network[0]] + files[:half], [network[1]] + files[half:]]
    smallest = min((e for e in entries if not e["error"] and e["header"].record),
                   key=lambda e: (len(e["text"].encode("utf-8")), e["file"]))
    return {"blocks": blocks, "setup_argv": ["cite", smallest["file"]],
            "setup_expect": cli_expect_cite(smallest["header"], smallest["label"], "canonical")}


# --- citation-text ----------------------------------------------------------------

CITATIONS = 20000
MUTUAL_ONTOLOGIES = 20
REFLIST_LINES = 1000
MUTUAL_PER_LIST = 10


def random_record(rng):
    creators = []
    for index in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.75:
            _, agent = person_agent(rng, GIVEN_ASCII)
        elif kind < 0.87:
            agent = [rng.choice(MONONYMS), None, False]
        else:
            agent = [rng.choice(ORGS), None, True]
        if agent not in creators:
            creators.append(agent)
    version = revision = None
    if rng.random() < 0.8:
        version = rng.choice(("", "v")) + ".".join(str(rng.randint(0, 12))
                                                  for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.3:
            revision = rng.choice(("r%d" % rng.randint(1, 999), random_date(rng).replace("-", "")))
    formats = []
    if rng.random() < 0.85:
        formats = rng.sample(KNOWN_FORMATS, rng.randint(1, 2))
        if rng.random() < 0.05:
            formats.append("owl/functional")
    host = rng.choice(("http://purl.example.org/onto/", "https://w3id.org/", "http://example.org/"))
    return {
        "creators": creators, "date": random_date(rng),
        "full_name": title_words(rng, 1, 6), "uri": host + "%s%d" % (
            "".join(rng.choice(string.ascii_lowercase) for _ in range(5)), rng.randint(0, 999)),
        "acronym": acronym_for(rng) if rng.random() < 0.5 else None,
        "version": version, "revision": revision, "formats": formats,
    }


def vary(rng, text, rec):
    """A tolerated variant of a canonical string: angle-bracketed URI, comma
    before the URI, extra whitespace."""
    if rng.random() < 0.2:
        text = text.replace(" " + rec["uri"], " <%s>" % rec["uri"])
    if rng.random() < 0.2:
        marker = ". " + rec["uri"] if ". " + rec["uri"] in text else ". <" + rec["uri"]
        text = text.replace(marker, ", " + marker[2:])
    if rng.random() < 0.3:
        text = "".join(rng.choice((" ", "  ", " \n ", "\t")) + tok if i else tok
                       for i, tok in enumerate(text.split(" ")))
        text = "  " + text + " \n"
    return text


def citation_case(rng):
    """A citation string and its expected outcome; about 10% carry a planted
    defect: an impossible date, a relative URI (outside the grammar, so
    E-PARSE), a bare IRI, or an unparseable string."""
    rec = random_record(rng)
    r = rng.random()
    if r < 0.025:
        rec["date"] = rng.choice(("2023-02-30", "2021-04-31", "2019-13-01", "2022-00-10"))
        return {"text": vary(rng, render_canonical(rec), rec), "record": rec,
                "codes": record_codes(rec)}
    if r < 0.05:
        rec["uri"] = rng.choice(("onto/%d.owl", "../terms/%d", "example.org/onto%d")) % rng.randint(0, 99)
        return {"text": render_canonical(rec), "record": None, "codes": ["E-PARSE"]}
    if r < 0.075:
        text = rng.choice(("%s", "<%s>", "  %s ")) % rec["uri"]
        return {"text": text, "record": None, "codes": ["E-URI-ONLY"]}
    if r < 0.1:
        text = rng.choice((
            "%s %s. %s" % (render_creators(rec["creators"]), rec["date"][:4], rec["uri"]),
            "(%s). %s. %s" % (rec["date"], rec["full_name"], rec["uri"]),
            "%s (%s)." % (render_creators(rec["creators"]), rec["date"]),
            free_reference(rng)))
        return {"text": text, "record": None, "codes": ["E-PARSE"]}
    return {"text": vary(rng, render_canonical(rec), rec), "record": rec,
            "codes": record_codes(rec)}


def similarity_tokens(line):
    tokens = set()
    for token in line.lower().split():
        cleaned = token.strip(string.punctuation)
        if cleaned:
            tokens.add(cleaned)
    return tokens


def reference_lines(text):
    blocks = [[]]
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


def has_uri_token(line, uri):
    return any(tok == uri or tok.strip("<>()[]{}\"';,.") == uri for tok in line.split())


def publication_side(lines, rec, threshold=0.6):
    """(found, similarity) of a reference list (as normalized lines with
    token sets) against a record, by the documented matching rule."""
    canonical = render_canonical(rec)
    canon_tokens = similarity_tokens(canonical)
    year = rec["date"][:4]
    best = 0.0
    found = None
    for line, tokens in lines:
        if line == canonical:
            return True, 1.0
        sim = len(tokens & canon_tokens) / len(tokens | canon_tokens) if tokens and canon_tokens else 0.0
        best = max(best, sim)
        if sim >= threshold and year in line and has_uri_token(line, rec["uri"]):
            found = sim if found is None else max(found, sim)
    return (True, found) if found is not None else (False, best)


def house_style(rng, rec):
    """Candidate house-styled renderings, most restyled first."""
    people = []
    for surname, initials, organization in rec["creators"]:
        people.append(surname if organization or not initials else "%s %s" % (initials, surname))
    authors = ", ".join(people)
    version = (" Version %s." % version_text(rec)) if rec["version"] else ""
    return [
        "%s (%s). %s.%s Available at: %s." % (authors, rec["date"][:4], title_text(rec), version, rec["uri"]),
        "%s. %s [Ontology]. %s.%s %s" % (authors, title_text(rec), rec["date"], version, rec["uri"]),
        render_canonical(rec).replace(" and ", " & ").replace(" (%s)." % rec["date"], " (%s)" % rec["date"]),
    ]


def gen_citation_text(rng, out):
    cases = [citation_case(rng) for _ in range(CITATIONS)]

    entries = corpus_headers(rng, MUTUAL_ONTOLOGIES, "mutual", malformed_share=0.0,
                             incomplete_share=0.0)
    for e in entries:
        write(out, e["file"], e["text"])
    records = [with_format(e["header"].record, e["label"]) for e in entries]

    calls = []
    for j in range(MUTUAL_ONTOLOGIES):
        targets = [(j + d) % MUTUAL_ONTOLOGIES for d in range(MUTUAL_PER_LIST)]
        exact = {targets[0], targets[2], targets[4]}
        styled = {targets[1], targets[3]}
        blank_layout = j % 2 == 1
        items = []
        for _ in range(REFLIST_LINES - len(exact) - len(styled)):
            items.append(free_reference(rng))
        for t in sorted(exact):
            items.append(render_canonical(records[t]))
        for t in sorted(styled):
            canonical = records[t]
            for candidate in house_style(rng, canonical):
                lines = [(" ".join(candidate.split()), similarity_tokens(candidate))]
                if publication_side(lines, canonical)[0]:
                    items.append(candidate)
                    break
            else:
                raise AssertionError("no house style matches")
        rng.shuffle(items)
        if blank_layout:
            chunks = []
            for item in items:
                words = item.split(" ")
                cut = rng.randint(1, max(1, len(words) - 1))
                chunks.append(" ".join(words[:cut]) + "\n" + " ".join(words[cut:]))
            text = "\n\n".join(chunks) + "\n"
        else:
            text = "\n".join(items) + "\n"
        name = "refs%02d.txt" % j
        write(out, name, text)
        lines = [(" ".join(raw.split()), similarity_tokens(" ".join(raw.split())))
                 for raw in reference_lines(text)]
        for t in targets:
            e = entries[t]
            found, sim = publication_side(lines, records[t])
            side = e["header"].ontology_side
            stdout = "ontology-side\t%s\npublication-side\t%s\tsimilarity=%.3f\n" % (
                "true" if side else "false", "true" if found else "false", sim)
            calls.append({"tag": "check_mutual", "argv": ["check-mutual", e["file"], name],
                          "bytes": len(e["text"].encode("utf-8")) + len(text.encode("utf-8")),
                          "expect": {"exit": 0 if side and found else 1, "stdout": stdout}})
    rng.shuffle(calls)
    strings = [{"tag": "citation", "text": case["text"], "bytes": len(case["text"].encode("utf-8")),
                "record": case["record"], "codes": case["codes"]} for case in cases]
    stride = CITATIONS // len(calls)
    groups = [[call] + strings[k * stride:(k + 1) * stride] for k, call in enumerate(calls)]
    # ten calls with their strings to a block: ~1,000 operations, enough for
    # a per-block 95th percentile with 50 samples beyond it
    blocks = [sum(groups[k:k + 10], []) for k in range(0, len(groups), 10)]
    shortest = min((c for c in cases if c["record"]), key=lambda c: (len(c["text"]), c["text"]))
    return {"blocks": blocks, "setup_argv": ["validate", shortest["text"]],
            "setup_expect": {"exit": 1 if any(c.startswith("E-") for c in shortest["codes"]) else 0,
                             "codes": shortest["codes"]}}


# --- entry points ----------------------------------------------------------------


def write(out, name, text):
    path = os.path.join(out, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def size(out, name):
    return os.path.getsize(os.path.join(out, name))


GENERATORS = {"big-onto": gen_big_onto, "onto-corpus": gen_onto_corpus,
              "citation-text": gen_citation_text}


def generate(workload, seed, out):
    """Write the workload's inputs under ``out`` and return its plan: the
    operations, each with its expected outcome."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    plan = GENERATORS[workload](rng, out)
    # A run may stop only after the last operation of a block, so every run
    # holds the same mix of operations whatever the machine's speed.
    blocks = plan.pop("blocks")
    plan["ops"] = [op for block in blocks for op in block]
    plan["stops"] = [sum(len(b) for b in blocks[:k + 1]) - 1 for k in range(len(blocks))]
    plan["workload"] = workload
    plan["seed"] = seed
    plan["input_bytes"] = sum(op["bytes"] for op in plan["ops"])
    return plan


def write_plan(workload, seed, out):
    """generate(), plus the plan written to OUT/plan.json."""
    plan = generate(workload, seed, out)
    write(out, "plan.json", json.dumps(plan, ensure_ascii=False))
    return plan


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_plan(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
