"""Peak resident memory of ontocite on a workload's largest inputs.

    python3 perfbench/probe_memory.py --root ROOT --work DIR

Runs each operation in DIR/memory.json (written by run.py: the operation
with the largest input of each kind in the workload) in this fresh
interpreter, with its output discarded, and prints its peak resident set
in MB.  The process holds no expected outputs and keeps no output, so the
figure is the interpreter's, the package's and its working memory.
measure.py runs and checks the same operations.
"""

import argparse
import contextlib
import json
import os
import sys

import measure


def peak_rss_mb():
    """VmHWM of this process's address space.  Not ``ru_maxrss``: on Linux
    that also keeps the resident set of the address space replaced by exec,
    which is the parent's when the child was started by vfork or fork."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise SystemExit("no VmHWM in /proc/self/status")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    api = measure.import_ontocite(args.root)
    os.chdir(args.work)
    with open("memory.json", encoding="utf-8") as handle:
        ops = json.load(handle)

    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in ops:
            try:
                if "argv" in op:
                    api.cli.main(op["argv"])
                else:
                    measure.citation_chain(api, op["text"])
            except SystemExit:
                pass
            except Exception:  # measure.py counts this operation as failed
                pass
    print(repr(peak_rss_mb()))


if __name__ == "__main__":
    main()
