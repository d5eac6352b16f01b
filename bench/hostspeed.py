"""Host-speed sampling: times scaled to a fixed reference speed.

The benchmark runs on shared hosts whose speed for Python code swings by up
to 2x for seconds to minutes at a time, with the load of other tenants on the
same cores.  A median over one run cannot remove a slow phase that lasts the
whole run.  So, while a timed region runs, a timer interrupts it every
``PERIOD`` seconds to run a fixed reference kernel, which calls nothing of
pinchlab, and records how long the kernel took.

The region's scaled time is its own elapsed time, less the time spent in the
kernel, times the mean of ``reference time / kernel time`` over its samples:
the time the region would have taken on a host where each part of the
kernel takes ``PART_S``.  The samples are spread evenly over the region's
elapsed time, so the mean of the speed ratio is the time-weighted speed, and
scaled time is the elapsed time the same work takes at the reference speed.
A change that makes pinchlab faster or slower changes the scaled time in the
same proportion; the kernel does not change with it.

The kernel is built from the shapes of pinchlab's hot paths, so that it
slows down with them.  Slow phases slow these shapes by different amounts:
on a 2-vCPU KVM guest, a phase that slowed a kernel of all three parts 1.5x
slowed the vectorized profile lanes 1.25x and the Fraction-heavy CLI
commands about 2x.  So each workload names the parts that match its own
hot paths (``hot_paths`` in workloads.py), and its kernel runs those.  A pure-integer loop tracked every workload worse than its parts.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

PERIOD = 0.02   # seconds between kernel samples
PART_S = 4e-4   # time of one kernel part at the reference speed

# numpy is imported inside the parts, so that run.py caps BLAS threads
# before numpy loads.


def _fractions():
    """Exact Fraction arithmetic, as in the ftensor sampler."""
    x = Fraction(1, 3)
    for i in range(1, 30):
        x = ((x * Fraction(i, i + 7) + Fraction(1, i + 1)) / 2).limit_denominator(10**12)
    return x


def _short_vectors():
    """Many numpy calls on short vectors, as in the optimizers' callbacks."""
    import numpy as np
    v = np.linspace(0.1, 1.0, 16)
    for _ in range(90):
        v = np.sin(np.dot(v, v) * v / np.linalg.norm(v))
    return v


def _long_vector():
    """Arithmetic on one long vector, as in the vectorized profile lanes and
    the min-Sec grid scoring."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 30_000)
    for _ in range(2):
        a = np.sqrt(a * a + 0.5) - 0.25
    return a


PARTS = {"fractions": _fractions, "short_vectors": _short_vectors,
         "long_vector": _long_vector}


class Region:
    """One timed region: its elapsed time and the kernel samples in it."""

    def __init__(self, parts):
        self.parts = [PARTS[name] for name in parts]
        self.samples = []
        self.elapsed = 0.0

    def _sample(self, signum, frame):
        started = perf_counter()
        for part in self.parts:
            part()
        self.samples.append(perf_counter() - started)

    @property
    def speed(self):
        """Host speed relative to the reference, time-weighted (1.0 = reference)."""
        if not self.samples:
            return 1.0
        reference = PART_S * len(self.parts)
        return statistics.fmean(reference / k for k in self.samples)

    @property
    def own(self):
        """Elapsed time less the time the kernel took."""
        return self.elapsed - sum(self.samples)

    @property
    def scaled(self):
        """Time the region's work takes at the reference speed."""
        return self.own * self.speed


@contextmanager
def sampled(parts=tuple(PARTS)):
    """Time the body and sample host speed with the named kernel parts while
    it runs; yields a Region."""
    region = Region(parts)
    previous = signal.signal(signal.SIGALRM, region._sample)
    started = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
    try:
        yield region
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        region.elapsed = perf_counter() - started
        signal.signal(signal.SIGALRM, previous)
