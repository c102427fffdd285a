"""Differential: two ontocite source trees against each other.

    python3 tests/differential.py OLD_SRC NEW_SRC --seed 1 --count 100000
    python3 tests/differential.py OLD_SRC NEW_SRC --citation --seed 1 --count 20000
    python3 tests/differential.py OLD_SRC NEW_SRC --cli --seed 3

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
``ParseError``; or the name of any other exception. The new tree parses
each chunk of inputs in reverse order, so that a result that depends on
what earlier inputs left behind in the process shows up as a mismatch.

``--citation`` is the citation layer. Its inputs come from
``perfbench/gen.py`` (loaded by path): ``citation_case`` strings (rendered
records, their tolerated variants and planted defects), the same strings
with ``:``, digits, non-ASCII letters, 9-12 character tokens, a date
element, NUL, a lone surrogate or a piece that meets a parse rule's seam
(`` and ``, ``, ,``, one half of ``<…>``, a nested `` [``…``]``, ``½.`` or
``ß.`` initials) spliced in at the grammar's separators or at a space;
``random_record`` JSON with fields dropped or wrongly typed;
reference lists of recent such strings around a ``random_record``'s
canonical line, a ``house_style`` variant of it, the line under a longer
URI, or none of these, one per line or in blank-line blocks; and
``make_header`` headers written as N-Triples, some with their acronym
spliced the same way. A string's result is its ``parse_canonical`` record
with the three renderings and ``record_from_json`` of its JSON, or the
``(position, expected, message)`` of its ``CitationParseError``, and the
diagnostics of ``validate_citation_string``. A JSON text's result is its
``record_from_json`` record, or the class and message of the exception
raised. A reference list's result is
the ``(found, similarity, matched_line)`` of ``check_publication_side``. A
header's result is its ``extract_metadata`` fields and warnings,
``derive_acronym``, ``build_record``, and the diagnostics of
``validate_record`` on its ``draft_fields`` (what ``validate FILE``
prints), each a value or the exception raised. The new tree takes each
chunk in reverse order and handles each input twice in a row, cold and
then warm (the second ``parse_canonical`` of a string is a hit in its
memo); both results are compared with the old tree's, so that a result
that depends on earlier inputs shows up as a mismatch.

``--cli`` is the command line: ``cli.main`` of each tree runs every
fixture command (each command on each fixture file, ``check-mutual``
against each reference list, ``network`` over each syntax's network files,
and usage and input errors) and every operation of the ``seed`` plans of
the three benchmark workloads, which ``perfbench/gen.py`` writes to a
temporary directory; a plan's citation string is the argument of a
``validate`` and of a ``parse``. ``--count N`` takes the first N commands
of each of these four sources, and all of them when it is not given. A
result is the exit code, standard output and standard error (each in full
up to 300 characters, else a digest), and the digest of the file an
``--out`` option names. The new tree runs each chunk in reverse order.

Standard library only; pytest does not collect it (see
``test_rdfio.py::TestBothSyntaxes::test_differential_against_itself``,
``test_citation.py::TestDifferential`` and ``test_cli.py::TestDifferential``).
"""

import argparse
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
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
    # names, directives (whole and cut short) and punctuation
    "x:", "x:y", "1x:t", "_x:t", ":", "_:b1", "_:", "@prefix", "@base", "@prefix x: <http://x/> .",
    "@prefix 1x: <http://x/> .", "@prefix x:", "@prefix x: <http://x/>", "@prefix x:<http://x/>.",
    "@prefix : <http://x/> .", "@base <http://b/> .", "[", "]", "(", ")", ".", ";", ",",
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


# The citation grammar's separators, and what the citation mode splices in there
# or at a space: among others, the pieces that meet a parse rule's seams.
SEPARATORS = (", ", " and ", ". ", ": ", "(", ")", "[", "]", "<", ">")
SEAMS = (" and ", ", ,", ", , ", "<", ">", " [a [b]]", " [a] [b]", " [", "]", ", ½.", ", ß.",
         " ß.", "½.")
NON_ASCII = "éÖßΩЖ小ǅ"
TOKEN_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
# What a JSON field is set to when it is given a wrong type.
WRONG_JSON = (None, 0, 1.5, True, "", "x", "onto/x", [], ["x", 1], {}, {"surname": 1})


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PY)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def filler(rng):
    kind = rng.randrange(8)
    if kind == 7:
        return rng.choice(SEAMS)
    if kind == 0:
        return ":"
    if kind == 1:
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 3)))
    if kind == 2:
        return "".join(rng.choice(NON_ASCII) for _ in range(rng.randint(1, 3)))
    if kind == 3:
        return "".join(rng.choice(TOKEN_CHARS) for _ in range(rng.randint(9, 12)))
    if kind == 4:
        return "(20%02d-0%d-1%d)." % (rng.randrange(100), rng.randint(1, 9), rng.randrange(10))
    if kind == 5:
        return "\x00"
    return chr(rng.randrange(0xD800, 0xE000))  # a lone surrogate


def splice(rng, text):
    """``text`` with a filler put before, after or in place of one of its
    separators, or of a space (or at either end of a text that holds none)."""
    seps = SEPARATORS if rng.random() < 0.75 else (" ",)
    spots = [(i, len(sep)) for sep in seps for i in range(len(text)) if text.startswith(sep, i)]
    at, size = rng.choice(spots) if spots else rng.choice([(0, 0), (len(text), 0)])
    start, end = rng.choice([(at, at), (at + size, at + size), (at, at + size)])
    return text[:start] + filler(rng) + text[end:]


def reference_list(gen, rng, strings):
    """``[record, text, threshold]``: a reference list of some of
    ``strings`` and maybe a line for ``record``, the record being a
    ``gen.random_record`` dict."""
    rec = gen.random_record(rng)
    canonical = gen.render_canonical(rec)
    items = rng.sample(strings, min(len(strings), rng.randint(0, 12)))
    line = rng.choice([canonical, rng.choice(gen.house_style(rng, rec)),
                       canonical.replace(rec["uri"], rec["uri"] + "x"), None])
    if line is not None:
        items.insert(rng.randint(0, len(items)), line)
    if rng.random() < 0.5:
        text = "\n".join(items)
    else:
        blocks = []
        for item in items:
            words = item.split(" ")
            cut = rng.randint(1, max(1, len(words) - 1))
            blocks.append(" ".join(words[:cut]) + "\n" + " ".join(words[cut:]))
        text = "\n\n".join(blocks)
    text = rng.choice(["", "", "\n"]) + text + rng.choice(["", "\n", "\n", "\n\n"])
    return [rec, text, rng.choice([0.0, 0.3, 0.6, 0.6, 0.6, 0.9, 1.0])]


def json_case(gen, rng):
    """A ``random_record``'s JSON with one or two fields of the record or of
    a creator dropped or given a wrong type, or with a relative URI and a
    wrongly typed acronym."""
    data = json.loads(gen.render_json(gen.random_record(rng)))
    if rng.random() < 0.2:
        data.update(uri="onto/x", acronym=rng.choice(WRONG_JSON[1:]))
        return json.dumps(data)
    for _ in range(rng.randint(1, 2)):
        entries = data.get("creators")
        entries = [e for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []
        target = rng.choice(entries) if entries and rng.random() < 0.3 else data
        key = rng.choice(sorted(target) + ["initials", "acronym", "version"])
        if rng.random() < 0.3:
            target.pop(key, None)
        else:
            target[key] = rng.choice(WRONG_JSON)
    return json.dumps(data)


def make_citation_inputs(seed, count):
    """``count`` citation-mode inputs for ``seed``: ``["string", text]``,
    ``["json", text]``, ``["mutual", [record, text, threshold]]`` or
    ``["header", n-triples]``; the same on every machine."""
    gen = load_gen()
    rng = random.Random(seed)
    inputs, known, strings = [], [], []
    for k in range(count):
        shape = rng.random()
        if shape < 0.7:
            text = gen.citation_case(rng)["text"]
            if shape >= 0.25:
                for _ in range(rng.randint(1, 3)):
                    text = splice(rng, text)
            inputs.append(["string", text])
            strings = strings[-49:] + [text]
            continue
        if shape < 0.78:
            inputs.append(["json", json_case(gen, rng)])
            continue
        if shape < 0.87:
            inputs.append(["mutual", reference_list(gen, rng, strings)])
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


def fixture_commands(out):
    """The fixture commands; ``inject`` writes to ``out``."""
    files = [str(p) for p in sorted(FIXTURES.rglob("*"))
             if p.suffix in (".ttl", ".nt", ".rdf", ".obo", ".xyz")]
    reflists = [str(p) for p in sorted((FIXTURES / "reflists").iterdir())]
    commands = []
    for path in files:
        commands += [["cite", path], ["cite", path, "--style", "bibtex"],
                     ["cite", path, "--style", "json", "--format-label", "rdf/xml"],
                     ["parse", path], ["validate", path],
                     ["inject", path, "--reference", "Doe, J. (2020). A paper.", "--out", out]]
        commands += [["check-mutual", path, reflist] for reflist in reflists]
    for pattern in ("*.ttl", "*.nt"):
        paths = [str(p) for p in sorted((FIXTURES / "network").glob(pattern))]
        commands += [["network", "--counts", *paths], ["network", "--dot", *paths]]
    return commands + [
        [], ["--help"], ["cite"], ["cite", files[0], "--style", "apa"], ["cite", "missing.ttl"],
        ["validate", "missing.ttl"], ["parse", "no date here"], ["validate", "http://a/o"],
        ["check-mutual", files[0], reflists[0], "--threshold", "nan"],
        ["network", "--dot", files[0], files[0]],
    ]


def make_cli_inputs(seed, count, work):
    """``[directory, argv]`` of each command: the fixture commands, then the
    commands of each workload's ``seed`` plan, whose inputs gen.py writes
    under ``work``; at most ``count`` of each, or all."""
    gen = load_gen()
    sources = [[[work, argv] for argv in fixture_commands(os.path.join(work, "out.nt"))]]
    for workload in gen.WORKLOADS:
        directory = os.path.join(work, workload)
        plan = gen.generate(workload, seed, directory)
        commands = [plan["setup_argv"]]
        for op in plan["ops"]:
            commands += [op["argv"]] if "argv" in op else [["validate", op["text"]],
                                                            ["parse", op["text"]]]
        sources.append([[directory, argv] for argv in commands])
    return [command for source in sources for command in source[:count]]


def digest(text):
    return hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()


def cli_worker(src):
    """Read a JSON list of ``[directory, argv]`` on stdin; print one result
    per command, run by ``cli.main`` of the ontocite under ``src`` in that
    directory."""
    sys.path.insert(0, src)
    import contextlib
    import io

    from ontocite import cli

    def shown(text):
        return text if len(text) <= 300 else digest(text)

    def result(directory, argv):
        os.chdir(directory)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any other outcome is a result too
                code = f"raised {type(exc).__name__}"
        written = None
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as handle:
                    written = digest(handle.read())
                os.remove(path)
        return [code, shown(out.getvalue()), shown(err.getvalue()), written]

    out = [result(directory, argv) for directory, argv in json.load(sys.stdin)]
    json.dump(out, sys.stdout)


def worker(src):
    """Read a JSON list of inputs on stdin; print one result per parser and
    input, parsed by the ontocite under ``src``."""
    sys.path.insert(0, src)
    from ontocite import (BlankNode, Iri, ParseError, parse_ntriples, parse_turtle,
                          serialize_ntriples)

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

    from ontocite import (Agent, CitationParseError, CitationRecord, Iri, build_record,
                          check_publication_side, derive_acronym, draft_fields,
                          extract_metadata, parse_canonical, parse_ntriples, record_from_json,
                          render_bibtex, render_canonical, render_json,
                          validate_citation_string, validate_record)

    def agents(creators):
        return [[a.surname, a.initials, a.organization] for a in creators]

    def fields(r):
        return [agents(r.creators), r.date, r.full_name, r.uri.value, r.acronym, r.version,
                r.revision, list(r.formats)]

    def record(r):
        return fields(r) + [render_canonical(r), render_bibtex(r), render_json(r),
                            attempt(lambda: fields(record_from_json(render_json(r))))]

    def failure(exc):
        if isinstance(exc, CitationParseError):
            return ["E", exc.position, exc.expected, exc.message]
        return ["X", type(exc).__name__, str(exc)]

    def attempt(call):
        try:
            return ["V", call()]
        except Exception as exc:  # any other outcome is a result too
            return failure(exc)

    def diagnostics(found):
        return [[d.code, d.severity, d.message, d.field] for d in found]

    def string_result(text):
        return {"parse": attempt(lambda: record(parse_canonical(text))),
                "validate": attempt(lambda: diagnostics(validate_citation_string(text)))}

    def mutual_result(case):
        rec, text, threshold = case
        r = CitationRecord([Agent(*a) for a in rec["creators"]], rec["date"], rec["full_name"],
                           Iri(rec["uri"]), rec["acronym"], rec["version"], rec["revision"],
                           rec["formats"])

        def match():
            m = check_publication_side(text, r, threshold)
            return [m.found, m.similarity, m.matched_line]
        return {"mutual": attempt(match)}

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
            "validate_file": attempt(lambda: diagnostics(validate_record(draft_fields(
                meta, derive_acronym(meta) if meta.title else None)))),
        }

    def json_result(text):
        return {"json": attempt(lambda: fields(record_from_json(text)))}

    handlers = {"string": string_result, "json": json_result, "mutual": mutual_result,
                "header": header_result}
    out = [handlers[kind](text) for kind, text in json.load(sys.stdin)]
    json.dump(out, sys.stdout)


def run_tree(src, inputs, mode=None):
    argv = [sys.executable, __file__, "--worker", src] + ([f"--{mode}"] if mode else [])
    proc = subprocess.run(argv, input=json.dumps(inputs), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def results(old, new, mode):
    """``(part, old, new)`` for each part of one input's results."""
    if mode == "citation":
        return [(part, old.get(part), new.get(part)) for part in sorted(old.keys() | new.keys())]
    parts = ("exit", "stdout", "stderr", "out") if mode == "cli" else ("turtle", "ntriples")
    return list(zip(parts, old, new))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--citation", action="store_const", const="citation", dest="mode",
                       help="compare the citation layer, not the RDF parsers")
    modes.add_argument("--cli", action="store_const", const="cli", dest="mode",
                       help="compare cli.main on the fixture and benchmark commands")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=None,
                        help="inputs (default 1000), or commands per source with --cli (all)")
    parser.add_argument("--show", type=int, default=10, help="mismatches to print")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        workers = {"citation": citation_worker, "cli": cli_worker, None: worker}
        return workers[args.mode](args.worker)
    if not (args.old_src and args.new_src):
        parser.error("two source directories are needed")
    if args.mode == "cli":
        with tempfile.TemporaryDirectory() as work:
            mismatches, compared = compare(args, make_cli_inputs(args.seed, args.count, work))
    else:
        make = make_citation_inputs if args.mode == "citation" else make_inputs
        count = 1000 if args.count is None else args.count
        mismatches, compared = compare(args, make(args.seed, count))
    unit = "parses" if args.mode is None else "results"
    print(f"{mismatches} mismatches in {compared} {unit} (seed {args.seed})")
    return 1 if mismatches else 0


def compare(args, inputs):
    """(mismatches, results compared) of the two trees on ``inputs``."""
    compared = mismatches = 0
    for first in range(0, len(inputs), CHUNK):
        chunk = inputs[first:first + CHUNK]
        old_results = run_tree(args.old_src, chunk, args.mode)
        # the new tree takes the chunk in reverse order, and in citation mode
        # handles each input twice in a row (see the module docstring)
        if args.mode == "citation":
            twice = run_tree(args.new_src, [x for x in chunk[::-1] for _ in (0, 1)], "citation")
            runs = [(" cold", twice[0::2][::-1]), (" warm", twice[1::2][::-1])]
        else:
            runs = [("", run_tree(args.new_src, chunk[::-1], args.mode)[::-1])]
        for label, new_results in runs:
            for text, old, new in zip(chunk, old_results, new_results):
                for part, a, b in results(old, new, args.mode):
                    compared += 1
                    if a != b:
                        mismatches += 1
                        if mismatches <= args.show:
                            print(f"{part}{label} {text!r}\n  old {a}\n  new {b}")
    return mismatches, compared


if __name__ == "__main__":
    sys.exit(main())
