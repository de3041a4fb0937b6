"""Speed probe: samples how fast the machine runs while a pass is timed.

On a shared host the speed a process gets drifts by tens of percent within
seconds to minutes, so raw pass times of the same code spread widely.  While
an untraced pass runs, a wall-clock timer (``SIGALRM`` every ``PERIOD_S``)
runs ``probe``, a fixed piece of work, and records how long it took.  The
machine's speed over the pass is the mean of ``1 / probe time``, and the
pass's program time multiplied by it is the pass time in probe runs: the
number of probes the machine could have run in that time at the speed it
had.  A change that makes the program faster lowers it; the machine's drift
moves the program and the probe alike and cancels.

The probe does not touch the package, so a change to the program cannot
change it.  Its parts mirror the work of the three workloads: scalar
Bessel-K calls (``figure_ip``'s quadrature integrands), a Python-level
log-gamma series (``op_envelope``'s series routes) and a vectorised
exponential (``mc_op``'s draws).
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np
from scipy import special

PERIOD_S = 0.02
_GRID = np.linspace(0.1, 5.0, 2048)


def probe() -> float:
    """Run the fixed probe work once; the value only keeps the work alive."""
    total = 0.0
    for k in range(12):
        total += special.kv(0.5 + k, 1.5)
    for k in range(1, 240):
        total += math.exp(math.lgamma(k + 0.5) - math.lgamma(k + 1.0) - 0.3 * k)
    return total + float(np.exp(-_GRID).sum())


class Sampler:
    """Time ``probe`` every ``period`` wall seconds while in the ``with`` block.

    ``samples`` holds the probe durations in seconds and ``probe_s`` their
    running sum, so a caller can leave the probe's time out of what it
    times.  Signal handlers run in the main thread between bytecodes, so a
    sample lands between two Python steps of the program and the program
    sees only the time it took.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)
        self.probe_s += self.samples[-1]

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one period: sample once after it
            self._sample()

    @property
    def rate(self) -> float:
        """Probe runs per second: the mean of ``1 / probe time`` over the samples."""
        return sum(1.0 / s for s in self.samples) / len(self.samples)
