"""CPU-speed probe: rescale a measured time to a fixed reference speed.

The benchmark runs on machines whose cores are shared with other work.
There the same pass over the same jobs can take 15-20% more or less time
from one minute to the next, and even the per-run minimum drifts by
about 10%.  The process's own CPU time drifts with it, so the cores
themselves run slower at such times, and no descheduling is involved.
To make runs comparable, a timed block runs with a SIGPROF timer that
fires every PROBE_INTERVAL_S of CPU time.  The handler times a fixed small
piece of Fraction arithmetic, the same kind of work the library does.  The
mean speed of those probes over the block, relative to REFERENCE_PROBE_S,
rescales the block's time, after the probes' own time is taken out:

    scaled = (wall - probe time) * mean(REFERENCE_PROBE_S / probe_i)

A scaled time is therefore in reference-CPU seconds.  On a quiet core
where the probe takes REFERENCE_PROBE_S, it equals the wall time.
"""

import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.01
REFERENCE_PROBE_S = 200e-6
MIN_SAMPLES = 20


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i % 13 + 2)
    return acc


def _time_probe() -> float:
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples CPU speed while entered.

    It can be entered for several blocks in turn; ``samples`` keeps the
    probe durations of all of them.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def _sample(self, signum, frame):
        self.samples.append(_time_probe())

    def factor(self) -> float:
        """Mean probe speed relative to the reference speed."""
        while len(self.samples) < MIN_SAMPLES:  # a block too short to sample
            self.samples.append(_time_probe())
        return sum(REFERENCE_PROBE_S / p for p in self.samples) / len(self.samples)


def timed(fn):
    """Run fn(); return (result, scaled seconds, raw wall seconds)."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
    probe_s = sum(probe.samples)
    return result, (wall - probe_s) * probe.factor(), wall
