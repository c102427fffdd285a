"""Run-to-run spread of the benchmark, set against its bounds.

    python3 perfbench/spread.py

Runs run.py, for every workload of BENCHMARK.json, in two sets of ten runs
of run_seconds each, every run with another seed (set k uses seeds
10k+1 .. 10k+10).  It prints for each end-to-end metric, per set, the
median and the quartile spread (Q3 - Q1) / median next to the metric's
bound, then how far the second set's median moved from the first set's.
A spread must stay within the bound, and should stay below a third of it;
the median may not get worse by more than the bound.  Exits 1 when a check
fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("run.py --seed %d failed: %s" % (seed, proc.stderr.strip()[-1000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("  seed %d: %d of %d operations failed" % (seed, result["failed"], result["attempted"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartile_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def worse_by(metric, first, last):
    """Share by which ``last`` is worse than ``first`` (negative: better)."""
    change = (last - first) / first
    return change if metric["better"] == "lower" else -change


def check(spec, sets):
    """Report lines and whether every check passed, for per-set value lists."""
    lines, ok = [], True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells = []
        for values in sets:
            median, spread = quartile_spread([v[name] for v in values])
            within = spread <= bound
            ok &= within
            cells.append("median %-12.6g spread %6.2f%%%s" % (
                median, 100 * spread, "" if within else " OVER"))
        drift = worse_by(metric, *(statistics.quantiles([v[name] for v in s], n=4)[1]
                                   for s in (sets[0], sets[-1])))
        drift_ok = drift <= bound
        ok &= drift_ok
        lines.append("  %-12s bound %4.0f%% (target spread < %4.1f%%) | %s | last vs first %+6.2f%%%s"
                     % (name, 100 * bound, 100 * bound / 3, " | ".join(cells), 100 * drift,
                        "" if drift_ok else " WORSE"))
    return lines, ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    all_ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = [[run_once(workload, seed, seconds) for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1)]
                for k in range(SETS)]
        lines, ok = check(spec, sets)
        all_ok &= ok
        print("%s: %d sets of %d runs, %ds each" % (workload, SETS, RUNS, seconds))
        print("\n".join(lines), flush=True)
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        with open(os.path.join(HERE, "_out", "spread-%s.json" % workload), "w",
                  encoding="utf-8") as handle:
            json.dump(sets, handle, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
