"""The machine's speed, sampled all through a run, to rescale its times.

On a shared virtual machine the speed moves by up to half within a
second: on a 2-vCPU one, one and the same point enumeration took from 0.45
to 0.66 s in a minute of repeats.  A timer (`ITIMER_PROF`, every INTERVAL_S of
the process's processor time) interrupts the worker between two bytecodes
and times one REFERENCE, a fixed piece of pure-Python work written apart
from the library: a dictionary polynomial evaluated mod 101 and a few
`Fraction` operations, the kinds of work the library does.  A stretch of
the run [t0, t1] is then rescaled (`Sampler.measure`, `rescaled`): its
wall time less the samples taken inside it, times NOMINAL_S over the
median sample around it.  The result reads as the stretch's time on the
same machine at the speed at which the reference takes NOMINAL_S.

Only the standard library is imported, so that the sampler can start
before the library is loaded and cover set-up as well.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02  # processor seconds between samples during operations
SETUP_INTERVAL_S = 0.005  # the same during set-up, which lasts 0.05-0.3 s
NEIGHBOURS = 8  # samples taken on each side of a stretch that also count
# time of REFERENCE on a 2-vCPU Xeon VM at 2.0 GHz, CPython 3.11.7, in its
# quicker spells (the median of a run read from 0.30 to 0.45 ms in one evening)
NOMINAL_S = 0.00030

_P = 101
_POLY = tuple(((i, j, k, l), (7 * i + 3 * j + 5 * k + 11 * l) % _P)
              for i in range(3) for j in range(3 - i) for k in range(3) for l in range(3 - k))
_Q = tuple(Fraction(3 * i - 7, 2 * i + 5) for i in range(6))


def reference():
    """A fixed piece of pure-Python work, about 0.4 ms."""
    total = 0
    for x in range(3):
        for y in range(4):
            acc = {}
            for (i, j, k, l), c in _POLY:
                key = (i + j, k + l)
                acc[key] = (acc.get(key, 0) + pow(x, i, _P) * pow(y, k, _P) * c) % _P
            total += sum(acc.values())
    q = Fraction(1)
    for a in _Q:
        q = q * a + a / (q + 1)
    return total, q


class Sampler:
    """Times REFERENCE on every tick of the processor-time timer; keeps the
    wall clock at which each sample started and its length, in order."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        reference()
        self.samples.append((t, time.perf_counter() - t))

    def start(self, interval=INTERVAL_S):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)

    def burst(self):
        """Take NEIGHBOURS samples at once, so that a stretch beginning or
        ending here has samples next to it."""
        for _ in range(NEIGHBOURS):
            self._tick(None, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def measure(self, t0, t1, extra=0.0):
        """(work, speed) of the stretch from t0 to t1: its wall seconds, plus
        `extra` seconds spent before the sampler started, less the samples
        taken inside it; and the median of those samples and of NEIGHBOURS
        more on each side."""
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, t0, key=_start)
        hi = bisect.bisect_left(samples, t1, key=_start)
        inside = sum(d for _, d in samples[lo:hi])
        around = [d for _, d in samples[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]]
        if not around:
            raise RuntimeError("no speed sample near the stretch")
        return t1 - t0 - inside + extra, statistics.median(around)

    def median_s(self):
        took = [d for _, d in self.samples]
        return statistics.median(took) if took else float("nan")


def rescaled(work, speed):
    """`work` seconds taken at the speed at which REFERENCE takes `speed`
    seconds, at the nominal speed instead."""
    return work * NOMINAL_S / speed


def _start(sample):
    return sample[0]
