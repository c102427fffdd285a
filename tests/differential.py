"""Parser differential: two ontocite source trees against each other.

    python3 tests/differential.py OLD_SRC NEW_SRC --seed 1 --count 100000

Generates ``count`` inputs from ``seed``: fixture documents with slices
replaced by random text, random strings over the syntax characters, and
statements assembled from escape, IRI, literal and prefix pieces, and
one-line statements whose subject, predicate, object and tail are each
a well-formed term or a piece. Each tree parses every input with
``parse_turtle`` and ``parse_ntriples`` in a subprocess of its own, which
imports ontocite from that tree only. The results are compared in a form
that does not depend on the tree: for a graph, digests of its triples as
term attributes, sorted and in iteration order, and of its
``serialize_ntriples`` text; the ``(line, column, message)`` of a
``ParseError``; or the name of any other exception. Prints the number of
mismatches and the first of them; exits 1 when there is any.

Standard library only; pytest does not collect it (see
``test_rdfio.py::TestBothSyntaxes::test_differential_against_itself``).
"""

import argparse
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
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


def run_tree(src, inputs):
    proc = subprocess.run([sys.executable, __file__, "--worker", src], input=json.dumps(inputs),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--show", type=int, default=10, help="mismatches to print")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    if not (args.old_src and args.new_src):
        parser.error("two source directories are needed")
    inputs = make_inputs(args.seed, args.count)
    mismatches = 0
    for first in range(0, len(inputs), CHUNK):
        chunk = inputs[first:first + CHUNK]
        for text, old, new in zip(chunk, run_tree(args.old_src, chunk),
                                  run_tree(args.new_src, chunk)):
            for syntax, a, b in zip(("turtle", "ntriples"), old, new):
                if a != b:
                    mismatches += 1
                    if mismatches <= args.show:
                        print(f"{syntax} {text!r}\n  old {a}\n  new {b}")
    print(f"{mismatches} mismatches in {2 * len(inputs)} parses (seed {args.seed})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
