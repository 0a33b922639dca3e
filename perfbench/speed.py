"""Host speed, sampled while the benchmark works.

The benchmark runs on shared machines.  On a 2-core VM, the same 400
decisions took 1.1 s and 2.1 s in windows a few seconds apart, and ten
runs of the battery spread from 30 to 41 s.  Raw times then spread more
than the benchmark's bounds, whatever the workload size.  So every time
the benchmark reports is scaled to a reference speed: a fixed step of
pure-Python ``Fraction`` arithmetic, the kind of work lnz does, is timed
at regular intervals around and during the measured work, and a time
``t`` measured while the step took ``d`` seconds on average counts as
``t * NOMINAL_S / d``.  The step uses only the standard library, so no
change to lnz can move it; a change to lnz moves the scaled time exactly
as much as the raw time.  Raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction as Q
from time import perf_counter

#: Seconds ``reference_step`` takes at the reference speed, about its
#: median on a 2-core Xeon VM; the step took 3.0 to 4.5 ms there.
NOMINAL_S = 0.0035
#: Seconds of wall time between two samples during measured work.
PERIOD_S = 0.1


def reference_step() -> dict:
    """Fixed work: Fraction products summed into a dict, as in a bracket."""
    acc = {}
    for i in range(500):
        k = i % 17
        acc[k] = acc.get(k, Q(0)) + Q(i % 7 - 3, i % 5 + 1) * Q(2, i % 3 + 1)
    return acc


def time_step() -> float:
    start = perf_counter()
    reference_step()
    return perf_counter() - start


def factor(samples: list) -> float:
    """Reference speed over the host's speed during the samples: the mean
    of ``NOMINAL_S / d``, so that each sample weighs by the time it stands
    for, and a sample slowed by one interruption weighs little."""
    return statistics.fmean(NOMINAL_S / d for d in samples)


class Sampler:
    """While entered, times ``reference_step`` every ``PERIOD_S`` seconds
    from a ``SIGALRM`` handler, and once on entry and once on exit.

    ``spent`` is the wall time the handler took; the caller subtracts it
    from what it measured.  Entry and exit samples fall outside the
    caller's timed section.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        self.samples.append(time_step())
        self.spent += perf_counter() - start

    def __enter__(self):
        self.samples.append(time_step())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_step())
        return False

    def factor(self) -> float:
        return factor(self.samples)
