"""ontocite benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload big-onto --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run generates the workload's inputs
from the seed (gen.py) under perfbench/_work/, runs the workload's
operations in one fresh interpreter (measure.py) for --seconds, checking
every output, scaling every time to the reference speed of calib.py, and
timing set-up in fresh interpreters (probe_setup.py) along the way, then
takes the peak memory of the largest inputs in another fresh interpreter
(probe_memory.py).  It
prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  The full result, with metadata, goes to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

CHILD_TIMEOUT_S = 120

# Units of the per-command figures each workload also reports (not gated).
DETAIL_UNITS = {
    "cite_ttl_mb_s": "MB/s", "cite_nt_mb_s": "MB/s", "convert_mb_s": "MB/s",
    "inject_mb_s": "MB/s", "corpus_files_per_s": "files/s", "corpus_cmd_p50_ms": "ms",
    "corpus_cmd_p99_ms": "ms", "network_s": "s", "citations_per_s": "strings/s",
    "check_mutual_p50_ms": "ms", "check_mutual_p95_ms": "ms",
}


def src_line_count(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def python_child(script, *args, timeout):
    proc = subprocess.run([sys.executable, os.path.join(HERE, script)] + [str(a) for a in args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (exit %d): %s" % (script, proc.returncode, proc.stderr.strip()[-2000:]))
    return proc.stdout


def peak_rss_mb(work, plan):
    """Peak RSS (MB) of a fresh interpreter running the largest input of each
    kind of operation in the plan."""
    largest = {}
    for op in plan["ops"]:
        if op["tag"] not in largest or op["bytes"] > largest[op["tag"]]["bytes"]:
            largest[op["tag"]] = op
    with open(os.path.join(work, "memory.json"), "w", encoding="utf-8") as handle:
        json.dump([{k: op[k] for k in ("argv", "text") if k in op} for op in largest.values()],
                  handle, ensure_ascii=False)
    return float(python_child("probe_memory.py", "--root", ROOT, "--work", work, timeout=40))


def fmt(value):
    return "n/a" if value is None else ("%d" % value if isinstance(value, int) else "%.6g" % value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ontocite", "__init__.py")):
        print("error: no ontocite sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(HERE, "_work", "%s-%d" % (args.workload, args.seed))
    out_dir = os.path.join(HERE, "_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    try:
        plan = gen.write_plan(args.workload, args.seed, work)
        child = python_child("measure.py", "--root", ROOT, "--work", work, "--seconds", args.seconds,
                             "--trace", args.trace, timeout=CHILD_TIMEOUT_S)
        result = json.loads(child.strip().splitlines()[-1])
        values = dict(result["layers"] if args.trace else result["e2e"])
        if not args.trace:
            values["setup_s"] = statistics.median(result["setup_times_s"])
            values["peak_rss_mb"] = peak_rss_mb(work, plan)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print("error: no value for %s on %s" % (", ".join(missing), args.workload), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_line_count(ROOT), "input_bytes_per_cycle": plan["input_bytes"],
        "ops_per_cycle": len(plan["ops"]),
    }
    if not args.trace:
        meta["kernel_pass_us"] = result["kernel_pass_us"]
    record = {"meta": meta, "metrics": metrics, "detail": result.get("detail"),
              "e2e": result.get("e2e"), "setup_times_s": result.get("setup_times_s"),
              "layers": result.get("layers"),
              "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
              "problems": result["problems"]}
    with open(os.path.join(out_dir, "result-%s-trace%d.json" % (args.workload, args.trace)),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, ensure_ascii=False)

    print("# ontocite benchmark: " + "  ".join("%s=%s" % kv for kv in meta.items()))
    if args.trace:
        print("# per-layer, traced run (%d spans; tracing overhead %.1f%% over the same"
              " operations untraced, run in alternation)"
              % (result["span_count"], result["layers"]["trace.overhead_pct"]))
        for name in sorted(result["layers"]):
            print("#   %-32s %12s %s" % (name, fmt(result["layers"][name]), spans.UNITS[name]))
    else:
        print("# end-to-end, untraced (%d operations in %d blocks; each timing is the median over"
              " blocks of the block's figure, scaled to the reference speed of calib.py: %.1f us"
              " per kernel pass, against %.1f us measured here)"
              % (attempted, result["blocks"], 1e6 * calib.REF_UNIT_S, result["kernel_pass_us"]))
        for m in wanted:
            note = {"setup_s": " (median of %d fresh interpreters)" % len(result["setup_times_s"]),
                    "peak_rss_mb": " (fresh interpreter, largest input of each operation)"
                    }.get(m["name"], "")
            print("#   %-32s %12s %s%s" % (m["name"], fmt(values[m["name"]]), m["unit"], note))
        print("# per command (value, samples)")
        for name, entry in result["detail"].items():
            value, samples = entry if entry else (None, 0)
            print("#   %-32s %12s %s (n=%d)" % (name, fmt(value), DETAIL_UNITS[name], samples))
    print("#   %-32s %12s (%d of %d operations)"
          % ("failed_frac", fmt(failed / attempted), failed, attempted))
    for tag, problem in result["problems"]:
        print("# FAILED %s: %s" % (tag, problem[:300]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
