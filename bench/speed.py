"""Host speed reference for the end-to-end timings.

The benchmark runs on a small share of a shared host whose speed drifts:
the same job takes up to 1.8x longer when neighbours are busy, in bursts
from milliseconds to more than a minute.  A whole run can fall into a
slow period, so medians over a run do not remove it.

A fixed reference computation, independent of the program, is timed
between jobs.  Each end-to-end time is reported at reference speed: the
raw time times ``NOMINAL_S`` over the reference's time measured around
it.  The reference is mostly interpreter-bound arithmetic on small
Fractions, as in the program's exact layers, with some big-integer
products; the two slow down by different amounts (about 1.9x and 1.4x
between quiet and busy periods of the same host), and this mix tracks
the jobs of every workload.  A change to the program cannot move the
reference, so every change in the program's speed shows in full.
"""

import statistics
import time
from fractions import Fraction

# The reference's time on a 2-core Intel Xeon in a quiet period; a time at
# reference speed reads as seconds on that machine then.
NOMINAL_S = 0.002
# Before a job, one sample is taken for every INTERVAL_S since the last
# one (at most BURST), so a long job is followed by as many samples as
# the jobs of that length would have had; one more is taken after the
# last job.  A job's reference is the mean of the samples within
# WINDOW_S of it, which always include those just before and just after.
INTERVAL_S = 0.1
BURST = 5
WINDOW_S = 1.0

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 7)
            for j in range(10)] for i in range(10)]
_MODULUS = 10 ** 700 + 7


def _eliminate():
    """Fraction determinant of a fixed 10x10 matrix."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(len(a)):
        p = next(r for r in range(c, len(a)) if a[r][c])
        a[c], a[p] = a[p], a[c]
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _products():
    """Modular big-integer products of about 2300 bits."""
    x, y = 3 ** 1400, 7 ** 800
    for _ in range(30):
        x = x * y % _MODULUS
    return x


def reference_s() -> float:
    """Time of one run of the reference computation."""
    t0 = time.perf_counter()
    _eliminate()
    _products()
    return time.perf_counter() - t0


class Meter:
    """Reference samples taken between jobs, as (time, seconds) pairs."""

    def __init__(self):
        self.samples = []

    def sample(self, force=False):
        now = time.perf_counter()
        due = BURST if not self.samples else \
            min(BURST, int((now - self.samples[-1][0]) / INTERVAL_S))
        for _ in range(max(due, int(force))):
            self.samples.append((time.perf_counter(), reference_s()))

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the reference around the interval [t0, t1]."""
        near = [s for t, s in self.samples
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return NOMINAL_S / statistics.mean(near)

    def summary(self):
        values = sorted(s for _, s in self.samples)
        if not values:
            return {}
        q = statistics.quantiles(values, n=4) if len(values) > 1 else \
            values * 3
        return {"samples": len(values), "nominal_s": NOMINAL_S,
                "p25_s": q[0], "p50_s": statistics.median(values),
                "p75_s": q[2]}
