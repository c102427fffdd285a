"""The benchmark's traced run wraps ontocite functions under the names the
calling modules bind (``perfbench/spans.py``). Renaming or bypassing one of
them leaves a per-layer metric without a value, and ``perfbench/run.py
--trace 1`` then fails. This test runs the CLI under the benchmark's own
tracer and checks that every per-layer metric of ``BENCHMARK.json`` gets a
value."""

import importlib.util
import json
from pathlib import Path

import ontocite
from ontocite import cli

from conftest import HEADERS, NETWORK, REFLISTS

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that perfbench/measure.py computes without spans.
NOT_FROM_SPANS = {"rdfio.parse_peak_kib", "model.graph_build_peak_kib", "trace.overhead_pct"}


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Metrics that every command building a citation record must feed, so that
# each workload's cite, validate and check-mutual operations report them.
EXTRACTION = {"extract.metadata_s", "extract.find_ontology_us", "extract.acronym_us",
              "model.match_calls", "model.graph_build_s"}


def test_every_per_layer_metric_has_a_span(capsys):
    spans = _spans_module()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    commands = [
        ["cite", str(HEADERS / "pav.ttl")],
        ["cite", str(HEADERS / "go.nt"), "--style", "bibtex"],
        ["validate", str(HEADERS / "pav.ttl")],
        ["check-mutual", str(HEADERS / "pav.ttl"), str(REFLISTS / "reflist_with_ontology_ref.txt")],
        ["network", "--counts", *map(str, sorted(NETWORK.glob("*.ttl")))],
    ]
    match = ontocite.model.Graph.match
    codes, fed = [], {}
    for argv in commands:
        tracer = spans.Tracer()
        tracer.install(ontocite)
        try:
            codes.append(cli.main(argv))
        finally:
            tracer.uninstall()
        tracer.finish()
        layers = spans.layer_metrics(tracer.spans, 1)
        fed[" ".join(argv[:2])] = {name for name, value in layers.items() if value is not None}
    capsys.readouterr()
    assert ontocite.model.Graph.match is match
    # pav.ttl carries no publication reference: check-mutual exits 1, not 2
    assert codes == [0, 0, 0, 1, 0]

    for command, names in fed.items():
        if not command.startswith("network"):
            assert EXTRACTION - names == set(), command
    wanted = {metric["name"] for metric in spec["per_layer"]}
    assert wanted - set(layers) == NOT_FROM_SPANS
    assert wanted - NOT_FROM_SPANS - set().union(*fed.values()) == set()
