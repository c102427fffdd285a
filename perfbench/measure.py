"""Run one workload's operations against ontocite and check every result.

run.py starts this in a fresh interpreter:

    python3 perfbench/measure.py --root ROOT --work DIR --seconds S --trace 0|1

It reads DIR/plan.json (written by gen.py), times each operation through the
package's public entry points (``ontocite.cli.main`` for commands, the
functions exported by ``ontocite`` for the library), compares each result
with the generator's expectation, and prints one JSON object: end-to-end
metrics, their times scaled to the reference speed of calib.py, with the
set-up times of fresh interpreters taken during the measurement, or with
``--trace 1`` per-layer metrics (wall-clock times) and the tracing
overhead, the spans going to perfbench/_out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES = 20
PROBE_CALIB_S = 0.05
# Operations are timed in windows of about WINDOW_S seconds; after each,
# calib.py's kernel runs for CALIB_SHARE of the window's time.
WINDOW_S = 0.02
CALIB_SHARE = 0.3


def import_ontocite(root):
    """Import ontocite from ROOT/src, and from nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "ontocite", "__init__.py")):
        raise SystemExit("ontocite sources not found under %s" % src)
    sys.path.insert(0, src)
    import ontocite
    import ontocite.cli  # noqa: F401 - binds the attribute used below
    if not os.path.abspath(ontocite.__file__).startswith(src + os.sep):
        raise SystemExit("imported ontocite from %s, not %s" % (ontocite.__file__, src))
    return ontocite


def citation_chain(api, text):
    """validate, parse, render in three styles and read the JSON back:
    (diagnostics, record or None on a parse error, renderings, record read back)."""
    diagnostics = api.validate_citation_string(text)
    try:
        record = api.parse_canonical(text)
    except api.CitationParseError:
        return diagnostics, None, None, None
    rendered = (api.render_canonical(record), api.render_bibtex(record), api.render_json(record))
    return diagnostics, record, rendered, api.record_from_json(rendered[2])


class Runner:
    """Executes plan operations and checks their results."""

    def __init__(self, api):
        self.api = api
        self._files = {}

    def _expected_file(self, name):
        if name not in self._files:
            with open(name, encoding="utf-8", newline="") as handle:
                self._files[name] = handle.read()
        return self._files[name]

    def run(self, op):
        """(elapsed ns, problem or None) for one operation."""
        if "argv" in op:
            return self._command(op)
        return self._citation(op)

    def _command(self, op):
        out, err = io.StringIO(), io.StringIO()
        error = None
        main = self.api.cli
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an unexpected exception is a failed operation
                code, error = None, exc
        elapsed = time.perf_counter_ns() - start
        if error is not None:
            return elapsed, "raised %s: %s" % (type(error).__name__, error)
        return elapsed, self._check_command(op["expect"], code, out.getvalue(), err.getvalue())

    def _check_command(self, expect, code, stdout, stderr):
        if code != expect["exit"]:
            return "exit %r, expected %r (stderr: %s)" % (code, expect["exit"], stderr.strip()[:200])
        if "stdout" in expect and stdout != expect["stdout"]:
            return "stdout differs: %r" % stdout[:200]
        if "stdout_file" in expect and stdout != self._expected_file(expect["stdout_file"]):
            return "stdout differs from %s" % expect["stdout_file"]
        if "stderr_has" in expect and expect["stderr_has"] not in stderr:
            return "stderr lacks %r: %r" % (expect["stderr_has"], stderr[:200])
        if "codes" in expect:
            codes = [line.split("\t", 1)[0] for line in stdout.splitlines()]
            if codes != expect["codes"]:
                return "codes %r, expected %r" % (codes, expect["codes"])
        if "out_file" in expect:
            with open(expect["out_file"], encoding="utf-8", newline="") as handle:
                written = handle.read()
            os.remove(expect["out_file"])
            if written != self._expected_file(expect["out_expected_file"]):
                return "%s differs from %s" % (expect["out_file"], expect["out_expected_file"])
        return None

    def _citation(self, op):
        text = op["text"]
        start = time.perf_counter_ns()
        try:
            diagnostics, record, rendered, back = citation_chain(self.api, text)
        except Exception as exc:  # an unexpected exception is a failed operation
            return time.perf_counter_ns() - start, "raised %s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter_ns() - start
        codes = [d.code for d in diagnostics]
        if codes != op["codes"]:
            return elapsed, "codes %r, expected %r for %r" % (codes, op["codes"], text)
        expected = op["record"]
        if expected is None:
            return elapsed, None if record is None else "parsed %r, expected a parse error" % text
        if record is None:
            return elapsed, "parse error, expected a record for %r" % text
        wanted = (gen.render_canonical(expected), gen.render_bibtex(expected), gen.render_json(expected))
        for got, want, what in zip(rendered, wanted, ("canonical", "bibtex", "json")):
            if got != want:
                return elapsed, "%s %r, expected %r" % (what, got, want)
        if back != record:
            return elapsed, "record_from_json does not round-trip %r" % text
        return elapsed, None


def schedule(ops, stops, seconds, clock=time.perf_counter):
    """(index, op) in order, cyclically, until ``seconds`` have passed on
    ``clock`` and the last op ended a block (its index is in ``stops``)."""
    start = clock()
    i = 0
    while not (i and (i - 1) % len(ops) in stops and clock() - start >= seconds):
        yield i, ops[i % len(ops)]
        i += 1


class SetupProbes:
    """Set-up times of fresh interpreters (probe_setup.py), taken at even
    intervals through the measurement, between two operations, and scaled
    to the reference speed by the kernel's mean pass time over a slice run
    here just before the probe starts and one the probe runs right after
    its set-up.  The probes' own wall time is left out of the measured
    seconds."""

    def __init__(self, root, seconds):
        self.root = root
        self.interval = seconds / SETUP_PROBES
        self.times = []
        self.spent = 0.0

    def clock(self):
        return time.perf_counter() - self.spent

    def take_due(self, elapsed):
        while len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.interval:
            start = time.perf_counter()
            taken, passes = calib.sample(PROBE_CALIB_S)
            proc = subprocess.run([sys.executable, os.path.join(HERE, "probe_setup.py"),
                                   "--root", self.root],
                                  capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise SystemExit("probe_setup.py failed: %s" % proc.stderr.strip()[-1000:])
            elapsed, probe_taken, probe_passes = json.loads(proc.stdout)
            unit_s = (taken + probe_taken) / (passes + probe_passes)
            self.times.append(elapsed * calib.REF_UNIT_S / unit_s)
            self.spent += time.perf_counter() - start


def scale(window, before, after):
    """The window's samples, their times scaled to the reference speed by
    the kernel's mean pass time over the calibrations on either side."""
    unit_s = (before[0] + after[0]) / (before[1] + after[1])
    factor = calib.REF_UNIT_S / unit_s
    return unit_s, [(op, elapsed * factor, problem) for op, elapsed, problem in window]


def run_ops(runner, ops, stops, seconds, probes):
    """Samples (op, elapsed ns at the reference speed, problem) and the
    kernel's pass time (s) of each window.  After every WINDOW_S of
    operation time the reference kernel runs for CALIB_SHARE of it; its
    time counts towards the measured seconds."""
    samples, window, busy_ns, unit_times = [], [], 0, []
    before = calib.sample(WINDOW_S * CALIB_SHARE)
    start = probes.clock()
    for _, op in schedule(ops, stops, seconds, probes.clock):
        probes.take_due(probes.clock() - start)
        window.append((op,) + runner.run(op))
        busy_ns += window[-1][1]
        if busy_ns >= WINDOW_S * 1e9:
            after = calib.sample(busy_ns / 1e9 * CALIB_SHARE)
            unit_s, scaled = scale(window, before, after)
            samples += scaled
            unit_times.append(unit_s)
            window, busy_ns, before = [], 0, after
    if window:
        unit_s, scaled = scale(window, before, calib.sample(busy_ns / 1e9 * CALIB_SHARE))
        samples += scaled
        unit_times.append(unit_s)
    probes.take_due(float("inf"))
    return samples, unit_times


def run_paired(runner, ops, stops, seconds, tracer, api):
    """The traced run: each op runs twice in a row, untraced and with spans
    recorded, alternating which goes first, so that the machine's drift
    falls on both sides of the tracing overhead alike."""
    plain, traced = [], []
    for i, op in schedule(ops, stops, seconds):
        for with_spans in (False, True) if i % 2 == 0 else (True, False):
            if not with_spans:
                plain.append((op,) + runner.run(op))
                continue
            tracer.op = i
            tracer.install(api)
            try:
                traced.append((op,) + runner.run(op))
            finally:
                tracer.uninstall()
    return plain, traced


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def blocks_of(samples, n_ops, stops):
    """The run's samples, in schedule order from the plan's first op, split
    into its blocks."""
    blocks, current = [], []
    for k, sample in enumerate(samples):
        current.append(sample)
        if k % n_ops in stops:
            blocks.append(current)
            current = []
    return blocks


def block_figures(block):
    times_ms = [s[1] / 1e6 for s in block]
    seconds = sum(times_ms) / 1e3
    return {
        "input_mb_s": sum(s[0]["bytes"] for s in block) / 1e6 / seconds,
        "ops_per_s": len(block) / seconds,
        "op_p50_ms": percentile(times_ms, 50),
        "op_p95_ms": percentile(times_ms, 95),
    }


def summarize(samples, blocks, workload):
    """End-to-end metrics, each the median over the run's blocks of that
    block's figure, so that a stall of the machine in a few blocks does not
    move it; plus the per-command figures the workload exists for, over all
    operations."""
    per_block = [block_figures(b) for b in blocks]
    e2e = {name: statistics.median(f[name] for f in per_block) for name in per_block[0]}
    by_tag = {}
    for op, elapsed, _ in samples:
        by_tag.setdefault(op["tag"], []).append((op["bytes"], elapsed / 1e9))

    def mb_s(tag):
        rows = by_tag.get(tag, [])
        return [statistics.median(b / 1e6 / t for b, t in rows), len(rows)] if rows else None

    def ms(tags, q):
        rows = [t * 1e3 for tag in tags for _, t in by_tag.get(tag, [])]
        return [percentile(rows, q), len(rows)] if rows else None

    def per_s(tags, per_op=1.0):
        rows = [t for tag in tags for _, t in by_tag.get(tag, [])]
        return [len(rows) * per_op / sum(rows), len(rows)] if rows else None

    if workload == "big-onto":
        detail = {"cite_ttl_mb_s": mb_s("cite_ttl"), "cite_nt_mb_s": mb_s("cite_nt"),
                  "convert_mb_s": mb_s("convert"), "inject_mb_s": mb_s("inject")}
    elif workload == "onto-corpus":
        network = [t for tag in ("network_counts", "network_dot") for _, t in by_tag.get(tag, [])]
        detail = {"corpus_files_per_s": per_s(("cite", "validate"), 0.5),
                  "corpus_cmd_p50_ms": ms(("cite", "validate"), 50),
                  "corpus_cmd_p99_ms": ms(("cite", "validate"), 99),
                  "network_s": [statistics.median(network), len(network)] if network else None}
    else:
        detail = {"citations_per_s": per_s(("citation",)),
                  "check_mutual_p50_ms": ms(("check_mutual",), 50),
                  "check_mutual_p95_ms": ms(("check_mutual",), 95)}
    return e2e, detail


def memory_probe(api, ops):
    """tracemalloc peaks (KiB) of parsing the workload's largest well-formed
    RDF input, and of building a Graph from its triples."""
    paths = {op["argv"][1] for op in ops
             if "argv" in op and op["argv"][0] in ("cite", "validate", "check-mutual")
             and op["expect"]["exit"] != 2}
    path = max(sorted(paths), key=os.path.getsize)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    parse = api.parse_turtle if path.endswith(".ttl") else api.parse_ntriples
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        graph = parse(text)
        parse_peak = tracemalloc.get_traced_memory()[1] - base
        triples = list(graph)
        del graph
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        api.Graph(triples)
        build_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"rdfio.parse_peak_kib": parse_peak / 1024, "model.graph_build_peak_kib": build_peak / 1024}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/ontocite")
    parser.add_argument("--work", required=True, help="directory gen.py wrote")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = import_ontocite(args.root)
    os.chdir(args.work)
    with open("plan.json", encoding="utf-8") as handle:
        plan = json.load(handle)
    ops, stops = plan["ops"], set(plan["stops"])
    runner = Runner(api)
    # warm-up: imports done, lazy set-up and caches filled before timing
    setup = {"argv": plan["setup_argv"], "expect": plan["setup_expect"]}
    runner.run(setup)
    gc.collect()

    if not args.trace:
        with open("setup.json", "w", encoding="utf-8") as handle:
            json.dump(setup, handle)
        probes = SetupProbes(os.path.abspath(args.root), args.seconds)
        samples, unit_times = run_ops(runner, ops, stops, args.seconds, probes)
        blocks = blocks_of(samples, len(ops), stops)
        e2e, detail = summarize(samples, blocks, plan["workload"])
        result = {"e2e": e2e, "detail": detail, "blocks": len(blocks),
                  "setup_times_s": probes.times,
                  "kernel_pass_us": 1e6 * statistics.median(unit_times)}
        measured = samples
    else:
        tracer = spans.Tracer()
        samples, traced = run_paired(runner, ops, stops, args.seconds, tracer, api)
        tracer.finish()
        layers = spans.layer_metrics(tracer.spans, len(traced))
        layers.update(memory_probe(api, ops))
        untraced_s = sum(s[1] for s in samples)
        layers["trace.overhead_pct"] = 100.0 * (sum(s[1] for s in traced) - untraced_s) / untraced_s
        result = {"layers": layers, "span_count": len(tracer.spans)}
        tracer.dump(os.path.join(HERE, "_out", "spans-%s.json" % plan["workload"]))
        measured = samples + traced
    problems = [(op["tag"], problem) for op, _, problem in measured if problem]
    result["attempted"] = len(measured)
    result["failed"] = len(problems)
    result["problems"] = problems[:20]
    result["failed_tags"] = sorted({tag for tag, _ in problems})
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
