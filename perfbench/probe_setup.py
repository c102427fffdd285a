"""Set-up time of ontocite in a fresh interpreter.

Times from ``import ontocite`` to the first result of the workload's first
command on its smallest input, checks that result, then runs calib.py's
kernel for as long again, and prints ``[set-up seconds, kernel seconds,
kernel passes]`` as JSON:

    python3 perfbench/probe_setup.py --root ROOT

run from the workload's input directory, whose setup.json (written by
measure.py) holds the command line and its expected outcome.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    with open("setup.json", encoding="utf-8") as handle:
        setup = json.load(handle)
    sys.path.insert(0, src)
    out = io.StringIO()

    start = time.perf_counter()
    import ontocite.cli
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ontocite.cli.main(setup["argv"])
    elapsed = time.perf_counter() - start

    if not os.path.abspath(ontocite.__file__).startswith(src + os.sep):
        sys.exit("imported ontocite from %s, not %s" % (ontocite.__file__, src))
    expect = setup["expect"]
    codes = [line.split("\t", 1)[0] for line in out.getvalue().splitlines()]
    if code != expect["exit"] or out.getvalue() != expect.get("stdout", out.getvalue()) \
            or codes != expect.get("codes", codes):
        sys.exit("set-up command %r gave exit %r, output %r" % (setup["argv"], code, out.getvalue()))
    import calib  # after the timed part, so that set-up does not include it
    print(json.dumps([elapsed, *calib.sample(elapsed)]))


if __name__ == "__main__":
    main()
