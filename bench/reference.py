"""The fixed pure-Python loop that CPU times are scaled against.

Imports nothing but `time`, so a fresh interpreter can run it before it
imports memtrace without loading any module memtrace would load.
"""

import time

REFERENCE_S = 0.001  # a CPU at reference speed runs the loop in this long
_A = tuple(range(0, 4000, 37))
_B = tuple(range(0, 4000, 41))


def reference_cpu_s() -> float:
    """Thread CPU time of a tolerance-DP loop over two constant tuples."""
    row = [0] * (len(_B) + 1)
    started = time.thread_time()
    best = 0
    for x in _A:
        diagonal = 0
        for j, y in enumerate(_B, 1):
            above = row[j]
            row[j] = diagonal + 1 if -50 <= x - y <= 50 else 0
            if row[j] > best:
                best = row[j]
            diagonal = above
    return time.thread_time() - started
