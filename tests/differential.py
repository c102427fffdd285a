"""Differential: two ontocite source trees against each other.

    python3 tests/differential.py OLD_SRC NEW_SRC --seed 1 --count 100000
    python3 tests/differential.py OLD_SRC NEW_SRC --citation --seed 1 --count 20000

Generates ``count`` inputs from ``seed``; each tree handles every input in
a subprocess of its own, which imports ontocite from that tree only, and
the results are compared in a form that does not depend on the tree.
Prints the number of mismatches and the first of them; exits 1 when there
is any.

The default mode is the RDF parsers. Its inputs are fixture documents with
slices replaced by random text, random strings over the syntax characters,
statements assembled from escape, IRI, literal and prefix pieces, and
one-line statements whose subject, predicate, object and tail are each a
well-formed term or a piece. Each is parsed with ``parse_turtle`` and
``parse_ntriples``; a result is digests of the graph's triples as term
attributes, sorted and in iteration order, and of its
``serialize_ntriples`` text; the ``(line, column, message)`` of a
``ParseError``; or the name of any other exception.

``--citation`` is the citation layer. Its inputs come from
``perfbench/gen.py`` (loaded by path): ``citation_case`` strings (rendered
records, their tolerated variants and planted defects), the same strings
with ``:``, digits, non-ASCII letters, 9-12 character tokens or a date
element spliced in at the grammar's separators, and ``make_header`` headers written as
N-Triples, some with their acronym spliced the same way. A string's result
is its ``parse_canonical`` record with the three renderings, or the
``(position, expected, message)`` of its ``CitationParseError``, and the
diagnostics of ``validate_citation_string``. A header's result is its
``extract_metadata`` fields and warnings, ``derive_acronym`` and
``build_record``, each a value or the exception raised.

Standard library only; pytest does not collect it (see
``test_rdfio.py::TestBothSyntaxes::test_differential_against_itself`` and
``test_citation.py::TestDifferential``).
"""

import argparse
import hashlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GEN_PY = FIXTURES.parents[1] / "perfbench" / "gen.py"
CHUNK = 2000

SYNTAX = '<>"\\#@^_:.;,[]()abcpxyzAEUu019+-\n \t'
PIECES = [
    # escapes, well formed or not
    "\\u0041", "\\U0001F600", "\\uD800", "\\uDC00", "\\U00110000", "\\u007B", "\\u005C",
    "\\u0020", "\\u12G4", "\\U0000004", "\\n", "\\t", '\\"', "\\\\", "\\q", "\\",
    # IRIs and their parts
    "<http://a>", "<http://a/b#c>", "<rel>", "<>", "<http://a b>", "<http://a{b}>", "<", ">",
    "<http://a\\u0041>", "<http://a\\u005Cu0041>", "<r\\u0065l>", "http://", "{", "|",
    # literals and their suffixes
    '"x"', '"""x"""', '"', '"""', "'", "@en", "@en-GB", "@1a", "@toolongtag", "^^", "^",
    "^^<http://d>", "^^x:t", "^^1x:t", ".5", "-3", "1e3", "true", "a",
    # names, directives and punctuation
    "x:", "x:y", "1x:t", "_x:t", ":", "_:b1", "_:", "@prefix", "@base", "@prefix x: <http://x/> .",
    "@prefix 1x: <http://x/> .", "@base <http://b/> .", "[", "]", "(", ")", ".", ";", ",",
    " ", "\n", "\t", "# c\n",
]
# A well-formed subject, predicate, object and tail of a one-line statement.
STATEMENT = ("<http://s>", "<http://p>", '"o"', ".\n")


def fixture_documents():
    return [p.read_text("utf-8") for p in sorted(FIXTURES.rglob("*"))
            if p.suffix in (".ttl", ".nt")]


def random_text(rng, size):
    return "".join(rng.choice(SYNTAX) if rng.random() < 0.8 else chr(rng.randrange(32, 0x3000))
                   for _ in range(size))


def make_inputs(seed, count):
    """``count`` inputs for ``seed``; the same on every machine."""
    rng = random.Random(seed)
    documents = fixture_documents()
    inputs = []
    for _ in range(count):
        shape = rng.random()
        if shape < 0.5:
            text = rng.choice(documents)
            for _ in range(rng.randrange(5)):
                start = rng.randrange(len(text) + 1)
                end = min(len(text), start + rng.randrange(40))
                filler = (rng.choice(PIECES) if rng.random() < 0.5
                          else random_text(rng, rng.randrange(12)))
                text = text[:start] + filler + text[end:]
        elif shape < 0.7:
            text = random_text(rng, rng.randrange(80))
        elif shape < 0.85:
            text = " ".join(rng.choice(PIECES) if rng.random() < 0.3 else part
                            for part in STATEMENT)
        else:
            text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(1, 14)))
            if rng.random() < 0.5:
                text = f"<http://s> <http://p> {text} .\n"
        inputs.append(text)
    return inputs


# The citation grammar's separators, and what the citation mode splices in there.
SEPARATORS = (", ", " and ", ". ", ": ", "(", ")", "[", "]", "<", ">")
NON_ASCII = "éÖßΩЖ小ǅ"
TOKEN_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PY)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def filler(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return ":"
    if kind == 1:
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 3)))
    if kind == 2:
        return "".join(rng.choice(NON_ASCII) for _ in range(rng.randint(1, 3)))
    if kind == 3:
        return "".join(rng.choice(TOKEN_CHARS) for _ in range(rng.randint(9, 12)))
    return "(20%02d-0%d-1%d)." % (rng.randrange(100), rng.randint(1, 9), rng.randrange(10))


def splice(rng, text):
    """``text`` with a filler put before, after or in place of one of its
    separators (or at either end of a text that holds none)."""
    spots = [(i, len(sep)) for sep in SEPARATORS
             for i in range(len(text)) if text.startswith(sep, i)]
    at, size = rng.choice(spots) if spots else rng.choice([(0, 0), (len(text), 0)])
    start, end = rng.choice([(at, at), (at + size, at + size), (at, at + size)])
    return text[:start] + filler(rng) + text[end:]


def make_citation_inputs(seed, count):
    """``count`` citation-mode inputs for ``seed``: ``["string", text]`` or
    ``["header", n-triples]``; the same on every machine."""
    gen = load_gen()
    rng = random.Random(seed)
    inputs, known = [], []
    for k in range(count):
        shape = rng.random()
        if shape < 0.85:
            text = gen.citation_case(rng)["text"]
            if shape >= 0.35:
                for _ in range(rng.randint(1, 3)):
                    text = splice(rng, text)
            inputs.append(["string", text])
            continue
        iri = "http://example.org/onto/h%d" % k
        missing = rng.choice((None,) * 7 + ("title", "creator", "date"))
        h = gen.make_header(rng, iri, "h%d" % k, others=known[-20:], missing=missing)
        text = "".join(gen.nt_line(t) for t in gen.flatten(gen.header_blocks(h)))
        acronym = h.fields.get("acronym")
        if acronym and rng.random() < 0.5:
            text = text.replace(acronym, splice(rng, acronym))
        if h.record is not None:
            known.append((iri, h.record))
        inputs.append(["header", text])
    return inputs


def worker(src):
    """Read a JSON list of inputs on stdin; print one result per parser and
    input, parsed by the ontocite under ``src``."""
    sys.path.insert(0, src)
    from ontocite import (BlankNode, Iri, ParseError, parse_ntriples, parse_turtle,
                          serialize_ntriples)

    def digest(text):
        return hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()

    def term(t):
        if isinstance(t, Iri):
            return ["I", t.value]
        if isinstance(t, BlankNode):
            return ["B", t.label]
        return ["L", t.lexical, t.lang, t.datatype and t.datatype.value]

    def result(parse, text):
        try:
            g = parse(text)
        except ParseError as exc:
            return ["E", exc.line, exc.column, exc.message]
        except Exception as exc:  # any other outcome is a result too
            return ["X", type(exc).__name__]
        triples = [json.dumps([term(t.subject), term(t.predicate), term(t.object)]) for t in g]
        return ["G", len(triples), digest("\n".join(sorted(triples))),
                digest("\n".join(triples)), digest(serialize_ntriples(g))]

    out = [[result(parse_turtle, text), result(parse_ntriples, text)]
           for text in json.load(sys.stdin)]
    json.dump(out, sys.stdout)


def citation_worker(src):
    """Read a JSON list of citation-mode inputs on stdin; print one result
    per input, from the ontocite under ``src``."""
    sys.path.insert(0, src)
    import warnings

    from ontocite import (CitationParseError, build_record, derive_acronym, extract_metadata,
                          parse_canonical, parse_ntriples, render_bibtex, render_canonical,
                          render_json, validate_citation_string)

    def agents(creators):
        return [[a.surname, a.initials, a.organization] for a in creators]

    def record(r):
        return [agents(r.creators), r.date, r.full_name, r.uri.value, r.acronym, r.version,
                r.revision, list(r.formats), render_canonical(r), render_bibtex(r),
                render_json(r)]

    def failure(exc):
        if isinstance(exc, CitationParseError):
            return ["E", exc.position, exc.expected, exc.message]
        return ["X", type(exc).__name__, str(exc)]

    def attempt(call):
        try:
            return ["V", call()]
        except Exception as exc:  # any other outcome is a result too
            return failure(exc)

    def string_result(text):
        return {"parse": attempt(lambda: record(parse_canonical(text))),
                "validate": attempt(lambda: [[d.code, d.severity, d.message, d.field]
                                             for d in validate_citation_string(text)])}

    def header_result(text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                meta = extract_metadata(parse_ntriples(text), fmt="n-triples")
            except Exception as exc:  # any other outcome is a result too
                return {"metadata": failure(exc)}
        return {
            "metadata": [meta.ontology_iri.value, meta.title, agents(meta.creators), meta.date,
                         meta.version, meta.revision, meta.format_label, meta.acronym],
            "warnings": [str(w.message) for w in caught],
            "derive_acronym": attempt(lambda: list(derive_acronym(meta))),
            "build_record": attempt(lambda: record(build_record(meta, derive_acronym(meta)))),
        }

    out = [string_result(text) if kind == "string" else header_result(text)
           for kind, text in json.load(sys.stdin)]
    json.dump(out, sys.stdout)


def run_tree(src, inputs, citation=False):
    argv = [sys.executable, __file__, "--worker", src] + (["--citation"] if citation else [])
    proc = subprocess.run(argv, input=json.dumps(inputs), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def results(old, new, citation):
    """``(part, old, new)`` for each part of one input's results."""
    if citation:
        return [(part, old.get(part), new.get(part)) for part in sorted(old.keys() | new.keys())]
    return list(zip(("turtle", "ntriples"), old, new))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--citation", action="store_true",
                        help="compare the citation layer, not the RDF parsers")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--show", type=int, default=10, help="mismatches to print")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return (citation_worker if args.citation else worker)(args.worker)
    if not (args.old_src and args.new_src):
        parser.error("two source directories are needed")
    inputs = (make_citation_inputs if args.citation else make_inputs)(args.seed, args.count)
    compared = mismatches = 0
    for first in range(0, len(inputs), CHUNK):
        chunk = inputs[first:first + CHUNK]
        for text, old, new in zip(chunk, run_tree(args.old_src, chunk, args.citation),
                                  run_tree(args.new_src, chunk, args.citation)):
            for part, a, b in results(old, new, args.citation):
                compared += 1
                if a != b:
                    mismatches += 1
                    if mismatches <= args.show:
                        print(f"{part} {text!r}\n  old {a}\n  new {b}")
    unit = "results" if args.citation else "parses"
    print(f"{mismatches} mismatches in {compared} {unit} (seed {args.seed})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
