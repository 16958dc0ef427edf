"""The machine's current speed, measured by a fixed calibration kernel.

The reference box is shared: its speed wanders by up to 1.7x over seconds to
minutes, and whole runs fall into its slow phases.  A run therefore times a
calibration slice before its first operation and after each one, and
scales each operation's wall time by REFERENCE_S over the mean of the two
slices around it: the operation's time at the box's reference speed.  The
kernel is pure Python in the program's idiom (exact Fraction elimination,
dict lookups, weighted sampling) and never calls the program, so a change
to the program moves the scaled times and leaves the slices alone.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# Median calibration slice on the reference box in its fast phase: a scaled
# time reads as the wall time that phase would give.
REFERENCE_S = 0.008
_KERNEL_REPEATS = 2


def _kernel() -> tuple:
    rng = random.Random(7)
    n = 6
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
         for _ in range(n)]
    for i in range(n):
        a[i][i] += 20
    for c in range(n):
        row = [x / a[c][c] for x in a[c]]
        a[c] = row
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], row)]
    succ = {i: {(3 * i + 1) % 50: 0.5, (7 * i + 2) % 50: 0.3, (i + 1) % 50: 0.2}
            for i in range(50)}
    s = 0
    for _ in range(1500):
        s = rng.choices(list(succ[s]), weights=list(succ[s].values()))[0]
    return a[0][n], s


def calibrate() -> float:
    """Wall time of one calibration slice.  The collector is off, so the
    program's live objects cannot make a slice slower."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_KERNEL_REPEATS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A wall time between two slices, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
