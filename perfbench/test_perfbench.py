"""Tests of the benchmark itself (not of ontocite):

    python3 -m pytest perfbench -q
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((first, 7), (second, 7), (other, 8)):
        gen.write_plan(workload, seed, str(out))
    names = _tree(first)
    assert names == _tree(second)
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert (first / "plan.json").read_bytes() != (other / "plan.json").read_bytes()


def test_turtle_and_ntriples_twins_hold_the_same_triples(tmp_path):
    gen.generate("big-onto", 3, str(tmp_path))
    turtle = gen.read_turtle((tmp_path / "big.ttl").read_text(encoding="utf-8"))
    ntriples = gen.read_ntriples((tmp_path / "big.nt").read_text(encoding="utf-8"))
    assert len(turtle) > 5000
    assert turtle == ntriples
    expected = gen.read_ntriples((tmp_path / "expect" / "parse.nt").read_text(encoding="utf-8"))
    assert expected == turtle


def test_corpus_headers_read_back_in_both_syntaxes():
    rng = gen.random.Random(5)
    for entry in gen.corpus_headers(rng, 40, "t", malformed_share=0.0):
        blocks = gen.header_blocks(entry["header"])
        turtle = gen.read_turtle(gen.TurtleWriter(gen.PREFIXES).document(blocks))
        ntriples = gen.read_ntriples("".join(gen.nt_line(t) for t in gen.flatten(blocks)))
        assert turtle == ntriples == set(gen.flatten(blocks))


def test_benchmark_json_has_the_required_shape():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    produced = set(spans.layer_metrics([], 1)) | {
        "rdfio.parse_peak_kib", "model.graph_build_peak_kib", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert all(m["unit"] == spans.UNITS[m["name"]] for m in spec["per_layer"])
    assert set(spans.UNITS) == produced


def test_layer_metrics_use_self_time():
    # cli.main 0..10 with one parse 2..8, which builds a graph 5..7
    recorded = [["cli.main", 0, 10_000, -1, 0, None, None],
                ["rdfio.parse_turtle", 2_000, 8_000, 0, 0, None, 2_000_000],
                ["model.Graph", 5_000, 7_000, 1, 0, None, 40]]
    metrics = spans.layer_metrics(recorded, 2)
    # busy times and counts are per operation, rates over all calls
    assert metrics["cli.self_ms"] == pytest.approx(0.004 / 2)
    assert metrics["cli.calls"] == 0.5
    assert metrics["rdfio.ttl_parse_s"] == pytest.approx(4e-6 / 2)
    assert metrics["rdfio.triples_per_s"] == pytest.approx(40 / 4e-6)
    assert metrics["model.graph_build_s"] == pytest.approx(2e-6 / 2)
    assert metrics["model.graph_triples"] == 20
    assert metrics["rdfio.parse_errors"] == 0
    # layers that saw no call report nothing, counts included
    assert metrics["network.build_s"] is None
    assert metrics["network.edges"] is None
    assert metrics["principles.diagnostics"] is None


def test_times_are_scaled_to_the_reference_speed():
    taken, passes = calib.sample(0.001)
    assert passes >= calib.MIN_PASSES and taken >= 0.001
    # the kernel ran at twice its reference pass time on both sides of the
    # window, so its operations read half as long
    before, after = (2 * calib.REF_UNIT_S * 10, 10), (2 * calib.REF_UNIT_S * 30, 30)
    window = [({"tag": "a"}, 4_000_000, None), ({"tag": "b"}, 1_000_000, "bad")]
    unit_s, scaled = measure.scale(window, before, after)
    assert unit_s == pytest.approx(2 * calib.REF_UNIT_S)
    assert [s[1] for s in scaled] == pytest.approx([2_000_000, 500_000])
    assert [(s[0], s[2]) for s in scaled] == [(op, problem) for op, _, problem in window]


def test_spread_check_flags_wide_spread_and_drift():
    spec = {"end_to_end": [{"name": "x_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
    steady = [{"x_ms": v} for v in (100, 101, 99, 100, 102, 98, 100, 101, 99, 100)]
    lines, ok = spread.check(spec, [steady, steady])
    assert ok and "x_ms" in lines[0] and "bound   10%" in lines[0]
    assert lines[0].count("spread") == 3  # the target, then one per set
    wide = [{"x_ms": v} for v in (60, 140, 80, 120, 100, 70, 130, 90, 110, 100)]
    assert not spread.check(spec, [steady, wide])[1]
    slower = [{"x_ms": v["x_ms"] * 1.2} for v in steady]
    lines, ok = spread.check(spec, [steady, slower])
    assert not ok and "WORSE" in lines[0]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "big-onto",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
