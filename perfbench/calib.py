"""The machine's current speed, measured with a fixed reference kernel.

The host this benchmark runs on changes speed by up to two times over
seconds to minutes (other tenants share its cores and caches), and the
same pure-Python work reads as much faster or slower.  A run therefore
times the reference kernel below in short slices between the operations
it measures, and scales each operation's time to what it would have been
at the reference speed, where one pass of the kernel takes ``REF_UNIT_S``.
Like ontocite, the kernel is interpreter-bound string, regex and dict
work, so both slow down alike; it calls nothing of ontocite, so a change
to ontocite does not move it.
"""

from __future__ import annotations

import re
import time

# Seconds one kernel pass takes at the reference speed.  Chosen near its
# median on a 2-vCPU Xeon VM under Python 3.11, so figures read close to
# that machine's wall-clock ones.
REF_UNIT_S = 100e-6

MIN_PASSES = 3

_TOKEN = re.compile(r"[A-Za-z]+|\d+|\S")
_TEXT = ('The quick brown fox, version 2.1 (2019-03-04), jumps over <http://example.org/x#y> '
         '"lazy"@en dogs; 42 ^^xsd:int . ') * 4


def kernel():
    counts = {}
    words = []
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
        if token.isalpha():
            words.append(token.lower()[::-1])
    return len(words) + len(counts)


def sample(budget_s, clock=time.perf_counter):
    """Run the kernel for about ``budget_s`` seconds, at least MIN_PASSES
    times: (seconds taken, passes)."""
    passes = 0
    start = clock()
    while True:
        kernel()
        passes += 1
        elapsed = clock() - start
        if passes >= MIN_PASSES and elapsed >= budget_s:
            return elapsed, passes
