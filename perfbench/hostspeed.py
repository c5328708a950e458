"""Host speed, measured beside the program so that times can be scaled.

The speed of a shared virtual machine moves with the load of other tenants
on the same physical cores: by 30% and more over tens of seconds, and by
as much from one tenth of a second to the next.  Run to run, that is more
than the regressions the benchmark must catch.  So a worker runs a small
fixed reference task, which calls nothing in gcladder, between operations
(at most every ``EVERY_S`` seconds), and scales each operation's time by
``REFERENCE_S`` over the reference task's time just before and just after
it: the time the operation would have taken at the host speed under which
``REFERENCE_S`` was recorded.  A change to the program moves the
operation's time and not the reference task's, so it shows in full.
``run.py`` prints the raw times beside the scaled ones.
"""

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

from stats import median

# About the median time of reference_task() on the reference host
# (README.md); it only sets the unit of the scaled times.
REFERENCE_S = 0.0100
# A new sample is taken before an operation when the last one is older.
EVERY_S = 0.05


_BUFFER = np.zeros(1 << 19, dtype=np.int64)  # 4 MB, allocated once


def reference_task():
    """Dict and tuple work on small ints, exact fractions and in-place numpy
    passes over a 4 MB array: the three kinds of work gcladder does.  It
    allocates little, so the program's heap does not change its speed."""
    table = {}
    for i in range(5000):
        key = (i % 101, i % 89)
        table[key] = table.get(key, 0) + i * i
    total = 0
    for i in range(1, 700):
        x = Fraction(i % 37 + 1, i % 11 + 1) * Fraction(3, 7) + Fraction(1, i % 13 + 1)
        total += x.numerator
    a = _BUFFER
    a[:] = 7
    for _ in range(6):
        np.multiply(a, 5, out=a)
        np.add(a, 3, out=a)
        np.bitwise_and(a, 0xFFFF, out=a)
    return len(table) + total + int(a[-1])


def measure():
    """(midpoint, seconds) of one run of the reference task, with the
    garbage collector off so the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_task()
        end = perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (start + end) / 2, end - start


def median_of(count):
    """Median seconds of ``count`` runs of the reference task."""
    return median([measure()[1] for _ in range(count)])


class Speedometer:
    """Samples of the reference task taken between operations."""

    def __init__(self):
        self.samples = []  # (midpoint, seconds)

    def tick(self):
        """Take a sample if the last one is older than EVERY_S."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.samples.append(measure())

    def around(self, start, end):
        """Reference seconds around the interval [start, end]: the mean of
        the last sample before it and the first one after it (the nearest
        one alone when it has no neighbour on one side)."""
        before = [s for s in self.samples if s[0] <= start]
        after = [s for s in self.samples if s[0] >= end]
        if not before and not after:
            raise ValueError("no reference samples around the interval")
        sides = ([before[-1]] if before else []) + ([after[0]] if after else [])
        return sum(s[1] for s in sides) / len(sides)
