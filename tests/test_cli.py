import io
import json
import os
import re
import subprocess
import symtable
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ontocite
from ontocite import cli, parse_ntriples
from ontocite.cli import main

from conftest import (
    HEADERS,
    MISC,
    NETWORK,
    PAV_CITATION,
    PUBLICATION_REF,
    REFLISTS,
    SAMPLE_CITATIONS,
)
from strategies import mutations

PAV_TTL = str(HEADERS / "pav.ttl")
_SEED_FILE_TEXTS = [
    p.read_text("utf-8") for p in sorted([*HEADERS.iterdir(), *REFLISTS.iterdir()])
]
NET_PATHS = [str(p) for p in sorted(NETWORK.glob("*.ttl"))]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, site=True, **env):
    """``python ARGV`` in a child process that imports the same ontocite
    package, installed or not; with ``site`` false the child starts with
    ``-S``, so that nothing site-packages preloads is already imported."""
    package_parent = os.path.dirname(os.path.dirname(ontocite.__file__))
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    flags = [] if site else ["-S"]
    return subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path, **env})


def run_module(*argv, **env):
    """``python -m ontocite`` in a child process."""
    return run_python("-m", "ontocite", *argv, **env)


class TestCite:
    def test_canonical_with_format_override(self, capsys):
        code, out, _ = run(capsys, "cite", PAV_TTL, "--style", "canonical",
                           "--format-label", "rdf/xml")
        assert code == 0
        assert out == PAV_CITATION + "\n"

    def test_default_style_is_canonical(self, capsys):
        code, out, _ = run(capsys, "cite", PAV_TTL, "--format-label", "rdf/xml")
        assert code == 0
        assert out == PAV_CITATION + "\n"

    def test_detected_label_without_override(self, capsys):
        code, out, _ = run(capsys, "cite", PAV_TTL)
        assert code == 0
        assert out.rstrip("\n").endswith("[turtle]")

    def test_json_style(self, capsys):
        code, out, _ = run(capsys, "cite", PAV_TTL, "--style", "json")
        assert code == 0
        data = json.loads(out)
        assert data["date"] == "2014-08-28"
        assert data["uri"] == "http://purl.org/pav/"

    def test_bibtex_style(self, capsys):
        code, out, _ = run(capsys, "cite", PAV_TTL, "--style", "bibtex",
                           "--format-label", "rdf/xml")
        assert code == 0
        assert "author = {Ciccarese, P. and Soiland-Reyes, S.}" in out
        assert "year = {2014}" in out

    def test_broken_file_exits_2_with_position(self, capsys):
        code, out, err = run(capsys, "cite", str(MISC / "broken.ttl"))
        assert code == 2
        assert out == ""
        assert "line" in err and "column" in err

    def test_rdfxml_input_refused_with_hint(self, capsys):
        code, _, err = run(capsys, "cite", str(MISC / "pav.rdf"))
        assert code == 2
        assert "convert" in err.lower()

    def test_unknown_format_exits_2(self, capsys):
        code, _, err = run(capsys, "cite", str(MISC / "mystery.xyz"))
        assert code == 2
        assert "unknown format" in err

    def test_missing_mandatory_field_exits_2(self, capsys):
        code, _, err = run(capsys, "cite", str(HEADERS / "typed.ttl"))
        assert code == 2
        assert "title" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "cite", "/nonexistent/nothing.ttl")
        assert code == 2

    def test_multiple_ontology_nodes_warns(self, capsys):
        code, out, err = run(capsys, "cite", str(HEADERS / "multi.ttl"))
        assert code == 0
        assert out.startswith("Example, A. (2020-05-06). Alpha Vocabulary.")
        assert "multiple ontology nodes" in err

    def test_title_token_that_is_no_acronym_reads_back(self, capsys, tmp_path):
        header = tmp_path / "h.ttl"
        header.write_text(
            "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
            "<http://example.org/o> a <http://www.w3.org/2002/07/owl#Ontology> ;\n"
            '    dcterms:title "ab:CD - Foo" ; dcterms:creator "Doe, J." ;\n'
            '    dcterms:issued "2020-01-01" .\n', "utf-8")
        code, out, _ = run(capsys, "cite", str(header))
        assert (code, out) == (0, "Doe, J. (2020-01-01). ab:CD - Foo. "
                                  "http://example.org/o [turtle]\n")
        code, out, _ = run(capsys, "parse", out.strip())
        assert code == 0
        assert "acronym" not in json.loads(out)
        assert json.loads(out)["full_name"] == "ab:CD - Foo"

    def test_module_entry_point(self):
        result = run_module("cite", PAV_TTL, "--style", "canonical", "--format-label", "rdf/xml")
        assert result.returncode == 0
        assert result.stdout == PAV_CITATION + "\n"


REFLIST = str(REFLISTS / "reflist_with_ontology_ref.txt")
SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")


def run_fresh(script, *argv):
    """``script`` in a fresh interpreter started without site; its last
    stdout line, read as JSON."""
    result = run_python("-c", script, *argv, site=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestOutputEncoding:
    """Output that standard output's encoding cannot hold is an error
    (exit 2), not a traceback."""

    HEADER = (
        "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "<http://example.org/ö> a owl:Ontology ;\n"
        '    dcterms:title "Example Ontology" ;\n'
        '    dcterms:creator "Müller, Ö" ;\n'
        '    dcterms:issued "2020-01-01" ;\n'
        '    dcterms:references "Müller, Ö. An unparsed reference" .\n'
    )
    CITATION = "Müller, Ö. (2020-01-01). Example. 1.0. http://example.org/o [façon]"

    @pytest.mark.parametrize("argv", [
        ["cite", "{header}"],
        ["cite", "{header}", "--style", "bibtex"],
        ["cite", "{header}", "--style", "json"],
        ["parse", "{header}"],
        ["parse", CITATION],
        ["validate", CITATION],
        ["network", "--dot", "{header}"],
        ["network", "--counts", "{header}"],
    ], ids=["cite", "cite-bibtex", "cite-json", "parse-file", "parse-string",
            "validate-string", "network-dot", "network-counts"])
    def test_unencodable_output_exits_2(self, argv, tmp_path):
        header = tmp_path / "h.ttl"
        header.write_text(self.HEADER, "utf-8")
        argv = [arg.replace("{header}", str(header)) for arg in argv]
        result = run_module(*argv, PYTHONIOENCODING="utf-8")
        assert result.returncode in (0, 1) and result.stdout, result.stderr
        result = run_module(*argv, PYTHONIOENCODING="ascii")
        assert (result.returncode, result.stdout) == (2, "")
        assert re.fullmatch("error: standard output encoding ascii cannot encode "
                            "U\\+00(E7|F6|FC)\n", result.stderr), result.stderr


class TestImports:
    """What a fresh process loads, in an interpreter started without site,
    so that nothing site-packages preloads hides a module."""

    # stdlib modules that no command needs, and that cost set-up time
    UNNEEDED = {"dataclasses", "inspect", "datetime", "string",
                "importlib.resources", "pathlib", "urllib.parse", "typing"}
    # runs one command; prints its exit code and every loaded module
    COMMAND = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from ontocite import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )

    def test_fresh_validate_loads_no_unneeded_module(self):
        code, added = run_fresh(self.COMMAND, "validate", PAV_CITATION)
        assert code == 0
        assert "ontocite.cli" in added
        assert self.UNNEEDED.isdisjoint(added)

    @pytest.mark.parametrize("argv,unused", [
        (["cite", PAV_TTL], {"principles", "mutual", "network"}),
        (["cite", str(HEADERS / "go.nt"), "--style", "bibtex"],
         {"principles", "mutual", "network"}),
        (["validate", PAV_CITATION], {"extract", "rdfio", "mutual", "network"}),
        (["parse", PAV_CITATION], {"extract", "principles", "rdfio", "mutual", "network"}),
        (["parse", PAV_TTL], {"citation", "extract", "principles", "mutual", "network"}),
        (["validate", PAV_TTL], {"mutual", "network"}),
        (["check-mutual", PAV_TTL, REFLIST], {"principles", "network"}),
        (["inject", PAV_TTL, "--reference", "x", "--out", "{out}"], {"principles", "network"}),
        (["network", "--counts", *NET_PATHS], {"principles", "mutual"}),
    ], ids=["cite", "cite-bibtex", "validate-string", "parse-string", "parse-file",
            "validate-file", "check-mutual", "inject", "network"])
    def test_each_command_loads_only_its_modules(self, argv, unused, tmp_path):
        argv = [arg.replace("{out}", str(tmp_path / "out.nt")) for arg in argv]
        code, added = run_fresh(self.COMMAND, *argv)
        assert code in (0, 1)
        loaded = {name.removeprefix("ontocite.") for name in added}
        assert "cli" in loaded
        assert unused.isdisjoint(loaded)
        assert self.UNNEEDED.isdisjoint(added)

    def test_commands_read_library_names_as_attributes(self):
        """A function of cli that reads a library name as a bare global
        works in-process once ``__getattr__`` has bound that name, and
        raises NameError in a fresh process; cli reads each as ``_cli.``."""
        with open(cli.__file__, encoding="utf-8") as handle:
            table = symtable.symtable(handle.read(), cli.__file__, "exec")
        bound = {s.get_name() for s in table.get_symbols() if s.is_assigned() or s.is_imported()}
        bare, scopes = [], table.get_children()
        while scopes:
            scope = scopes.pop()
            scopes += scope.get_children()
            bare += [f"{scope.get_name()}: {s.get_name()}" for s in scope.get_symbols()
                     if s.is_global() and s.get_name() in ontocite._EXPORTS.keys() - bound]
        assert bare == []

    def test_library_validate_loads_no_extractor(self):
        script = ("import json, sys\nimport ontocite\n"
                  "found = ontocite.validate_citation_string(sys.argv[1])\n"
                  "loaded = sorted(m for m in sys.modules if m.startswith('ontocite'))\n"
                  "print(json.dumps([[d.code for d in found], loaded]))\n")
        codes, loaded = run_fresh(script, PAV_CITATION)
        assert codes == []
        assert "ontocite.principles" in loaded
        assert {"ontocite.extract", "ontocite.rdfio", "ontocite.cli"}.isdisjoint(loaded)

    def test_import_ontocite_loads_no_submodule(self):
        script = ("import json, sys\nimport ontocite\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ontocite'))))\n")
        assert run_fresh(script) == ["ontocite"]


class TestFreshInterpreter:
    """The benchmark's span wrappers and the package's public names, in a
    fresh interpreter, where no other test has imported a module yet."""

    TRACED = (
        "import contextlib, importlib.util, io, json, sys\n"
        "spec = importlib.util.spec_from_file_location('perfbench_spans', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "import ontocite\n"
        "tracer = spans.Tracer()\n"
        "tracer.install(ontocite)\n"
        "from ontocite import cli\n"
        "runs = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in json.loads(sys.argv[2]):\n"
        "        start = len(tracer.spans)\n"
        "        code = cli.main(argv)\n"
        "        runs.append([code, sorted({s[0] for s in tracer.spans[start:]})])\n"
        "print(json.dumps(runs))\n"
    )
    READ_GRAPH = {"cli.main", "rdfio.detect_format_label", "model.Graph",
                  "extract.find_ontology_iri"}
    EXTRACTION = READ_GRAPH | {"model.Graph.match", "extract.extract_metadata",
                               "extract.derive_acronym", "citation.build_record"}

    def test_spans_of_each_command_are_recorded(self):
        commands = [
            (["cite", PAV_TTL], 0,
             self.EXTRACTION | {"rdfio.parse_turtle", "citation.render_canonical"}),
            (["validate", PAV_CITATION], 0,
             {"cli.main", "principles.validate_citation_string", "citation.parse_canonical",
              "principles.validate_record"}),
            (["check-mutual", PAV_TTL, REFLIST], 1,
             self.EXTRACTION | {"rdfio.parse_turtle", "mutual.list_references",
                                "mutual.check_publication_side",
                                "citation.render_canonical"}),
            (["network", "--counts", *NET_PATHS], 0,
             self.READ_GRAPH | {"rdfio.parse_turtle", "network.build_network",
                                "network.render_counts_report", "citation.parse_canonical"}),
        ]
        runs = run_fresh(self.TRACED, SPANS_PY, json.dumps([argv for argv, _, _ in commands]))
        for (argv, code, expected), (got_code, names) in zip(commands, runs):
            assert got_code == code, argv
            assert expected - set(names) == set(), argv

    def test_a_name_set_on_cli_before_first_use_is_kept(self):
        script = (
            "import contextlib, io, json, sys\n"
            "from ontocite import cli\n"
            "calls = []\n"
            "def fake(text):\n"
            "    calls.append(text)\n"
            "    return []\n"
            "cli.validate_citation_string = fake\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['validate', sys.argv[1]]) for _ in range(2)]\n"
            "from ontocite import principles\n"
            "print(json.dumps([codes, calls, cli.validate_citation_string is fake,\n"
            "                  cli.validate_record is principles.validate_record]))\n"
        )
        assert run_fresh(script, "no citation") == [[0, 0], ["no citation"] * 2, True, True]

    def test_public_names_resolve(self):
        script = (
            "import json\n"
            "import ontocite\n"
            "listed = set(ontocite.__all__) <= set(dir(ontocite))\n"
            "resolved = [name for name in ontocite.__all__ if hasattr(ontocite, name)]\n"
            "star = {}\n"
            "exec('from ontocite import *', star)\n"
            "print(json.dumps([listed, resolved == ontocite.__all__,\n"
            "                  sorted(set(ontocite.__all__) - set(star)),\n"
            "                  ontocite.model.__name__, hasattr(ontocite, 'no_such_name')]))\n"
        )
        assert run_fresh(script) == [True, True, [], "ontocite.model", False]


class TestParse:
    def test_file_to_ntriples(self, capsys):
        code, out, _ = run(capsys, "parse", PAV_TTL)
        assert code == 0
        reference = (HEADERS / "pav.nt").read_text("utf-8")
        assert parse_ntriples(out) == parse_ntriples(reference)

    def test_citation_string_to_json(self, capsys):
        code, out, _ = run(capsys, "parse", PAV_CITATION)
        assert code == 0
        assert json.loads(out)["acronym"] == "PAV"

    def test_unparseable_string_exits_2(self, capsys):
        code, _, err = run(capsys, "parse", "not a citation")
        assert code == 2
        assert "date" in err


class TestValidate:
    def test_complete_string_silent_success(self, capsys):
        code, out, _ = run(capsys, "validate", PAV_CITATION)
        assert code == 0
        assert out == ""

    def test_bare_uri(self, capsys):
        code, out, _ = run(capsys, "validate", "http://purl.org/pav/")
        assert code == 1
        assert out == "E-URI-ONLY\terror\tcitation is a mere link: a URI reveals neither creators, title, date, nor version\n"

    def test_file_with_warning_only(self, capsys):
        code, out, _ = run(capsys, "validate", str(HEADERS / "wqo.ttl"))
        assert code == 0
        assert out.startswith("W-VERSION-MISSING\twarning\t")

    def test_file_with_errors(self, capsys):
        code, out, _ = run(capsys, "validate", str(HEADERS / "typed.ttl"))
        assert code == 1
        codes = [line.split("\t")[0] for line in out.splitlines()]
        assert "E-CREATOR-MISSING" in codes
        assert "E-DATE-MISSING" in codes

    def test_unreadable_path_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/nothing.ttl")
        assert code == 2

    def test_bare_uri_with_rdf_extension_is_still_a_string(self, capsys):
        code, out, _ = run(capsys, "validate", "http://example.org/onto.owl")
        assert code == 1
        assert out.startswith("E-URI-ONLY\t")

    def test_citation_ending_in_owl_uri_is_a_string(self, capsys):
        code, out, _ = run(
            capsys, "validate",
            "Doe, J. (2020-01-01). Example Ontology. 1.0. http://example.org/onto.owl",
        )
        assert code == 0
        assert out.startswith("W-FORMAT-MISSING\t")

    def test_tab_separated_shape(self, capsys):
        _, out, _ = run(capsys, "validate", "garbage")
        line = out.rstrip("\n")
        assert len(line.split("\t")) == 3


class TestInject:
    def test_writes_reference(self, capsys, tmp_path, pav_graph):
        out_path = tmp_path / "pav.nt"
        code, _, _ = run(capsys, "inject", PAV_TTL,
                         "--reference", PUBLICATION_REF, "--lang", "en",
                         "--out", str(out_path))
        assert code == 0
        g = parse_ntriples(out_path.read_text("utf-8"))
        from ontocite import Iri, list_references
        assert list_references(g, Iri("http://purl.org/pav/")) == [
            (PUBLICATION_REF, "en")
        ]

    def test_reinjection_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "first.nt"
        second = tmp_path / "second.nt"
        run(capsys, "inject", PAV_TTL, "--reference", PUBLICATION_REF,
            "--lang", "en", "--out", str(first))
        code, _, _ = run(capsys, "inject", str(first), "--reference",
                         PUBLICATION_REF, "--lang", "en", "--out", str(second))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_lang_uppercase_normalized(self, capsys, tmp_path):
        out_path = tmp_path / "out.nt"
        run(capsys, "inject", PAV_TTL, "--reference", "Ref.", "--lang", "EN",
            "--out", str(out_path))
        assert '"Ref."@en' in out_path.read_text("utf-8")

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "inject", str(MISC / "broken.ttl"),
                         "--reference", "Ref.", "--out", str(tmp_path / "x.nt"))
        assert code == 2


class TestHostileInputs:
    """Inputs that once escaped as tracebacks end in one error line."""

    @pytest.mark.parametrize("text", [
        "<http://s> <http://p> " + "[ <http://p> " * 3000 + "<http://o>" + " ]" * 3000 + " .",
        "@base <http://[> .\n<x> <http://p> <http://o> .\n",
    ], ids=["deep-nesting", "unresolvable-base"])
    def test_parse_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "hostile.ttl"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "parse", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_blank_reference_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "inject", PAV_TTL, "--reference", "   ",
                           "--out", str(tmp_path / "o.nt"))
        assert code == 2
        assert err == "error: reference text is empty\n"
        assert not (tmp_path / "o.nt").exists()

    # an argument holding the byte 0xff, as Python decodes it
    SURROGATE_CITATION = "Doe, J. (2020-01-01). T\udcff. http://e.org/x"
    SURROGATE_ERROR = "at offset 23: expected title: lone surrogate U+DCFF"

    def test_surrogate_reference_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "inject", PAV_TTL, "--reference", "a\udcff",
                           "--out", str(tmp_path / "o.nt"))
        assert code == 2
        assert err == "error: lone surrogate U+DCFF in literal\n"
        assert not (tmp_path / "o.nt").exists()

    def test_surrogate_citation_is_a_parse_error(self, capsys):
        assert run(capsys, "parse", self.SURROGATE_CITATION) == (
            2, "", f"error: {self.SURROGATE_ERROR}\n")
        assert run(capsys, "validate", self.SURROGATE_CITATION) == (
            1, f"E-PARSE\terror\tcitation string does not parse: {self.SURROGATE_ERROR}\n", "")

    def test_surrogate_arguments_through_python_m(self, tmp_path):
        out = tmp_path / "o.nt"
        for argv, code, stdout, stderr in [
            (["parse", self.SURROGATE_CITATION], 2, "", f"error: {self.SURROGATE_ERROR}\n"),
            (["validate", self.SURROGATE_CITATION], 1,
             f"E-PARSE\terror\tcitation string does not parse: {self.SURROGATE_ERROR}\n", ""),
            (["inject", PAV_TTL, "--reference", "a\udcff", "--out", str(out)], 2, "",
             "error: lone surrogate U+DCFF in literal\n"),
        ]:
            result = run_module(*argv, PYTHONIOENCODING="utf-8")
            assert (result.returncode, result.stdout, result.stderr) == (code, stdout, stderr)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["parse", "a\x00.ttl"],
        ["cite", "a\x00.ttl"],
        ["check-mutual", PAV_TTL, "r\x00.txt"],
        ["inject", PAV_TTL, "--reference", "x", "--out", "o\x00.nt"],
        ["network", "--counts", "a\x00.ttl"],
    ], ids=["parse", "cite", "check-mutual", "inject-out", "network"])
    def test_path_holding_nul_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot ") and err.endswith(": embedded null byte\n")
        assert err.count("\n") == 1
        assert "\\x00" in err
        assert not any(ch < " " or ch == "\x7f" for ch in err[:-1])

    def test_control_characters_in_a_path_are_escaped(self, capsys):
        code, out, err = run(capsys, "cite", "a\x01\x1f\x7f\u00e9\u2028.ttl")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read a\\x01\\x1f\\x7f\u00e9\u2028.ttl: ")

    @pytest.mark.parametrize("date", ["2023-02-31", "2014-13-01", "２０１４-０８-２８"])
    def test_impossible_date_is_missing_everywhere(self, capsys, tmp_path, date):
        path = tmp_path / "dated.ttl"
        path.write_text(
            "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
            "<http://example.org/o> a <http://www.w3.org/2002/07/owl#Ontology> ;\n"
            f'    dcterms:title "Dated" ; dcterms:creator "Ann Author" ;\n'
            f'    dcterms:issued "{date}" .\n',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "cite", str(path))
        assert (code, out) == (2, "")
        assert err == "error: missing mandatory citation field: date\n"
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        codes = [line.split("\t")[0] for line in out.splitlines()]
        assert "E-DATE-MISSING" in codes and "E-DATE-FORMAT" not in codes

    def test_initials_of_any_script_pass_validate_and_parse_back(self, capsys, tmp_path):
        path = tmp_path / "names.ttl"
        path.write_text(
            "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
            "<http://example.org/o> a <http://www.w3.org/2002/07/owl#Ontology> ;\n"
            '    dcterms:title "Names" ; dcterms:issued "2014-08-28" ;\n'
            '    <http://www.w3.org/2002/07/owl#versionInfo> "1.0" ;\n'
            '    dcterms:creator "Özgür Müller", "小明 王", "ßtraße Weiß" .\n',
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "cite", str(path))
        assert (code, out) == (
            0, "Müller, Ö., Weiß, S. and 王, 小. (2014-08-28). Names. 1.0. "
               "http://example.org/o [turtle]\n",
        )
        assert run(capsys, "validate", str(path)) == (0, "", "")
        code, parsed, _ = run(capsys, "parse", out.strip())
        assert code == 0
        assert json.loads(parsed)["creators"] == [
            {"surname": "Müller", "initials": "Ö.", "organization": False},
            {"surname": "Weiß", "initials": "S.", "organization": False},
            {"surname": "王", "initials": "小.", "organization": False},
        ]

    def test_title_with_a_line_break_cites_on_one_line(self, capsys, tmp_path):
        path = tmp_path / "lines.ttl"
        path.write_text(
            "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
            "<http://example.org/o> a <http://www.w3.org/2002/07/owl#Ontology> ;\n"
            '    dcterms:title "Line one\\nLine two" ; dcterms:creator "Ann Author" ;\n'
            '    dcterms:issued "2020-01-02" .\n',
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "cite", str(path))
        assert (code, out) == (
            0, "Author, A. (2020-01-02). Line one Line two. http://example.org/o [turtle]\n")
        code, parsed, _ = run(capsys, "parse", out.strip())
        assert code == 0
        assert json.loads(parsed)["full_name"] == "Line one Line two"
        assert run(capsys, "validate", str(path)) == run(capsys, "validate", out.strip())

    @given(
        content=st.one_of(st.binary(max_size=300), mutations(_SEED_FILE_TEXTS)),
        suffix=st.sampled_from([".ttl", ".nt", ".owl", ".txt"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_file_content_exits_0_1_or_2(self, content, suffix):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input" + suffix)
            if isinstance(content, bytes):
                with open(path, "wb") as handle:
                    handle.write(content)
            else:
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(content)
            for argv in (
                ["cite", path], ["cite", path, "--style", "bibtex"], ["validate", path],
                ["parse", path], ["network", "--counts", path],
                ["check-mutual", path, path], ["check-mutual", PAV_TTL, path],
            ):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    assert main(argv) in (0, 1, 2), argv

    @given(text=st.one_of(st.text(), mutations(SAMPLE_CITATIONS)))
    @example("a\x00.ttl")
    @settings(max_examples=300, deadline=None)
    def test_any_citation_argument_exits_0_1_or_2(self, text):
        for command in ("validate", "parse"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main([command, "--", text]) in (0, 1, 2), command


class TestCheckMutual:
    def test_both_sides_hold(self, capsys, tmp_path):
        injected = tmp_path / "injected.nt"
        run(capsys, "inject", PAV_TTL, "--reference", PUBLICATION_REF,
            "--lang", "en", "--out", str(injected))
        code, out, _ = run(capsys, "check-mutual", str(injected),
                           str(REFLISTS / "reflist_with_ontology_ref.txt"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ontology-side\ttrue"
        assert lines[1].startswith("publication-side\ttrue\tsimilarity=")

    def test_pristine_fixture_and_empty_reflist(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out, _ = run(capsys, "check-mutual", PAV_TTL, str(empty))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "ontology-side\tfalse"
        assert lines[1].startswith("publication-side\tfalse")

    def test_journal_only_reflist_fails_publication_side(self, capsys, tmp_path):
        injected = tmp_path / "injected.nt"
        run(capsys, "inject", PAV_TTL, "--reference", PUBLICATION_REF,
            "--lang", "en", "--out", str(injected))
        code, out, _ = run(capsys, "check-mutual", str(injected),
                           str(REFLISTS / "reflist_journal_only.txt"))
        assert code == 1
        assert "publication-side\tfalse" in out

    def test_io_failure_exits_2(self, capsys):
        code, _, _ = run(capsys, "check-mutual", PAV_TTL, "/nonexistent/refs.txt")
        assert code == 2

    WQO_LIST = "\n".join([
        "Doe, J. (2020). A paper on water. Journal of Examples 1.",
        "Public, J. Q. (2021-02-03). Water Quality Ontology. http://example.org/wqo [turtle]",
        "Roe, R. (2019). Another paper. Journal of Examples 2.",
    ])

    @pytest.mark.parametrize("text, side", [
        (WQO_LIST + "\n", "true\tsimilarity=1.000"),
        ("\n" + WQO_LIST + "\n", "true\tsimilarity=1.000"),
        (WQO_LIST + "\n\n", "true\tsimilarity=1.000"),
        ("\n \n" + WQO_LIST + "\n\n\n", "true\tsimilarity=1.000"),
        (WQO_LIST.replace("\nRoe", "\n\nRoe") + "\n", "false\tsimilarity=0.500"),
    ], ids=["one-per-line", "leading-blank", "trailing-blank", "both", "middle-blank-joins"])
    def test_blocks_need_a_blank_line_between_references(self, capsys, tmp_path, text, side):
        refs = tmp_path / "refs.txt"
        refs.write_text(text, encoding="utf-8")
        _, out, _ = run(capsys, "check-mutual", str(HEADERS / "wqo.ttl"), str(refs))
        assert out.splitlines()[1] == "publication-side\t" + side

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.1"])
    def test_threshold_outside_zero_to_one_exits_2(self, capsys, threshold):
        code, out, err = run_caught(capsys, ["check-mutual", PAV_TTL, REFLIST,
                                             "--threshold", threshold])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "threshold" in err and err.count("\n") == 1

    @pytest.mark.parametrize("threshold, found", [("0", "true"), ("1", "false")])
    def test_threshold_bounds_accepted(self, capsys, threshold, found):
        code, out, err = run_caught(capsys, ["check-mutual", PAV_TTL, REFLIST,
                                             "--threshold", threshold])
        assert (code, err) == (1, "")
        assert out == f"ontology-side\tfalse\npublication-side\t{found}\tsimilarity=0.857\n"


class TestNetwork:
    def test_counts_match_manifest(self, capsys):
        code, out, _ = run(capsys, "network", *NET_PATHS, "--counts")
        assert code == 0
        report = json.loads(out)
        manifest = json.loads((NETWORK / "manifest.json").read_text("utf-8"))
        assert report["counts"] == manifest["counts"]

    def test_single_file_dot(self, capsys):
        code, out, _ = run(capsys, "network", str(NETWORK / "net_c.ttl"), "--dot")
        assert code == 0
        assert out == 'digraph ontocite {\n  "http://example.org/net/c";\n}\n'

    def test_duplicate_inputs_exit_2(self, capsys):
        code, _, err = run(capsys, "network", NET_PATHS[0], NET_PATHS[0], "--counts")
        assert code == 2
        assert "twice" in err

    def test_file_failure_exits_2(self, capsys):
        code, _, _ = run(capsys, "network", str(MISC / "broken.ttl"), "--counts")
        assert code == 2

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "network", *NET_PATHS, "--dot")
        assert code == 0
        assert out.startswith("digraph ontocite {")
        assert out.count("[style=solid];") == 3
        assert out.count("[style=dashed];") == 4


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cite", PAV_TTL, "--style", "canonical", "--format-label", "rdf/xml"),
            ("cite", PAV_TTL, "--style", "bibtex"),
            ("cite", PAV_TTL, "--style", "json"),
            ("parse", PAV_TTL),
            ("parse", PAV_CITATION),
            ("validate", str(HEADERS / "typed.ttl")),
            ("validate", "http://purl.org/pav/"),
            ("network", *NET_PATHS, "--counts"),
            ("network", *NET_PATHS, "--dot"),
        ],
        ids=lambda argv: " ".join(str(a) for a in argv[:2]),
    )
    def test_double_run_byte_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def run_caught(capsys, argv):
    """``main(argv)`` as (exit code, stdout, stderr), argparse's exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCachedParser:
    """``main`` reuses one parser per process; every call must behave as
    it does with a freshly built parser."""

    REFLIST = str(REFLISTS / "reflist_with_ontology_ref.txt")
    CALLS = [
        ("cite", PAV_TTL, "--style", "json"),
        ("cite", PAV_TTL),
        ("check-mutual", PAV_TTL, REFLIST, "--threshold", "0.9"),
        ("cite", PAV_TTL, "--style", "nope"),
        ("check-mutual", PAV_TTL, REFLIST),
        ("network", "--dot", *NET_PATHS),
        ("network", *NET_PATHS),
        ("network", "--counts", *NET_PATHS),
        ("validate", PAV_CITATION),
        ("cite", PAV_TTL, "--format-label", "rdf/xml", "--style", "bibtex"),
        ("cite", PAV_TTL, "--style", "canonical"),
    ]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_answers_as_a_fresh_one(self, capsys):
        reused = [run_caught(capsys, argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            fresh.append(run_caught(capsys, argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 2, 1, 0, 2, 0, 0, 0, 0]
        assert reused[2][1] != reused[4][1]  # the default threshold is back


MULTI_TTL = str(HEADERS / "multi.ttl")
MULTI_WARNING = (
    "warning: multiple ontology nodes; using <http://example.org/alpha>, "
    "ignoring <http://example.org/zeta>\n"
)
NOBODY_WARNING = (
    "warning: skipping creator: no name property found on agent node "
    "Iri(value='http://example.org/nobody')\n"
)
ONTO_HEADER = """\
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix dcterms: <http://purl.org/dc/terms/> .
@prefix dc: <http://purl.org/dc/elements/1.1/> .

<http://example.org/onto> a owl:Ontology ;
    dcterms:title "Onto Vocabulary" ;
    dcterms:issued "2020-05-06" ;
"""
ONTO_CITATION = "Alpha, A. (2020-05-06). Onto Vocabulary. http://example.org/onto [turtle]\n"


def onto_file(tmp_path, name, tail):
    path = tmp_path / name
    path.write_text(ONTO_HEADER + tail, encoding="utf-8")
    return str(path)


class TestWarnings:
    """Warnings go to stderr as ``warning:`` lines, before any ``error:``
    line; stdout does not change."""

    def test_cite_multiple_ontology_nodes(self, capsys):
        assert run(capsys, "cite", MULTI_TTL) == (
            0,
            "Example, A. (2020-05-06). Alpha Vocabulary. http://example.org/alpha [turtle]\n",
            MULTI_WARNING,
        )

    def test_validate_multiple_ontology_nodes(self, capsys):
        assert run(capsys, "validate", MULTI_TTL) == (
            0, "W-VERSION-MISSING\twarning\tno version given\n", MULTI_WARNING,
        )

    def test_inject_multiple_ontology_nodes(self, capsys, tmp_path):
        out = tmp_path / "out.nt"
        assert run(capsys, "inject", MULTI_TTL, "--reference", "Ref.", "--out", str(out)) == (
            0, "", MULTI_WARNING,
        )
        assert '<http://example.org/alpha> <http://purl.org/dc/terms/references> "Ref."@en .' \
            in out.read_text("utf-8")

    def test_network_warns_per_file_before_the_error(self, capsys):
        code, out, err = run(capsys, "network", MULTI_TTL, str(HEADERS / "multi.nt"), "--dot")
        assert (code, out) == (2, "")
        assert err == (
            MULTI_WARNING + MULTI_WARNING
            + "error: ontology appears twice in the corpus: <http://example.org/alpha>\n"
        )

    def test_network_counts_multiple_ontology_nodes(self, capsys):
        code, out, err = run(capsys, "network", MULTI_TTL, NET_PATHS[0], "--counts")
        assert code == 0
        assert "http://example.org/alpha" in json.loads(out)["counts"]
        assert err == MULTI_WARNING

    def test_unresolvable_creator(self, capsys, tmp_path):
        path = onto_file(tmp_path, "nobody.ttl",
                         '    dcterms:creator <http://example.org/nobody>, "Ann Alpha" .\n')
        assert run(capsys, "cite", path) == (0, ONTO_CITATION, NOBODY_WARNING)

    def test_unresolvable_sole_creator_warns_then_errors(self, capsys, tmp_path):
        path = onto_file(tmp_path, "nobody.ttl",
                         "    dcterms:creator <http://example.org/nobody> .\n")
        assert run(capsys, "cite", path) == (
            2, "", NOBODY_WARNING + "error: missing mandatory citation field: creator\n",
        )

    def test_check_mutual_legacy_relation(self, capsys, tmp_path):
        path = onto_file(tmp_path, "legacy.ttl", (
            '    dcterms:creator "Ann Alpha" ;\n'
            '    dc:relation "Alpha, A. (2019). A paper about the Onto Vocabulary. '
            'Journal of Examples, 1, 2." .\n'
        ))
        refs = tmp_path / "refs.txt"
        refs.write_text(ONTO_CITATION, encoding="utf-8")
        assert run(capsys, "check-mutual", path, str(refs)) == (
            0,
            "ontology-side\ttrue\npublication-side\ttrue\tsimilarity=1.000\n",
            "warning: treating legacy dc:relation value as a publication reference: "
            "'Alpha, A. (2019). A paper about the Onto Vocabulary. Journal'\n",
        )

    def test_check_mutual_warns_before_a_missing_field_error(self, capsys, tmp_path):
        path = onto_file(tmp_path, "nobody.ttl",
                         "    dcterms:creator <http://example.org/nobody> .\n")
        refs = tmp_path / "refs.txt"
        refs.write_text(ONTO_CITATION, encoding="utf-8")
        assert run(capsys, "check-mutual", path, str(refs)) == (
            2, "", NOBODY_WARNING + "error: missing mandatory citation field: creator\n",
        )


class TestInputFiles:
    def test_non_utf8_rdfxml_is_refused_as_rdfxml(self, capsys, tmp_path):
        path = tmp_path / "onto.rdf"
        path.write_bytes(b'<?xml version="1.0"?>\n<rdf:RDF>\xff\xfe</rdf:RDF>\n')
        code, out, err = run(capsys, "cite", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: rdf/xml input is not parsed natively; "
                       "convert to Turtle or N-Triples first\n")

    def test_non_utf8_turtle_is_refused_as_undecodable(self, capsys, tmp_path):
        path = tmp_path / "onto.ttl"
        path.write_bytes(b'<http://s> <http://p> "\xff" .\n')
        code, out, err = run(capsys, "cite", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not valid UTF-8: ")

    def test_each_file_is_opened_once(self, capsys, monkeypatch):
        import builtins
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open",
                            lambda path, *a, **k: opened.append(path) or real_open(path, *a, **k))
        assert run(capsys, "cite", PAV_TTL)[0] == 0
        assert opened == [PAV_TTL]


class TestDifferential:
    def test_cli_differential_against_itself(self):
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        proc = subprocess.run(
            [sys.executable, os.path.join(tests, "differential.py"), src, src, "--cli",
             "--seed", "3", "--count", "40"], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.fullmatch(r"0 mismatches in \d+ results \(seed 3\)\n", proc.stdout)
