"""A fixed reference computation that measures the machine's speed now.

On a shared machine the same work can take a third longer from one
minute to the next.  Timing this reference next to each measurement
lets a time be scaled to the speed the reference reads at
REFERENCE_S: ``scaled = measured * REFERENCE_S / reference_now``.
The reference mixes interpreter work (integer arithmetic, dict updates)
with small NumPy kernels, like the program does.

The speed can flip between a fast and a slow state within a second, so
a long phase is timed with :class:`SpeedSampler`, which samples the
speed throughout it rather than at its two ends.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

#: What one reference pass takes on the machine the bounds were set on
#: (2 vCPU x86-64 VM, Python 3.11, NumPy 2) when it is not contended.
REFERENCE_S = 0.019

#: How often SpeedSampler interrupts the phase it times for one pass.
SAMPLE_INTERVAL_S = 0.5


def _reference() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * 7) % 13
    a = np.arange(2000.0)
    for _ in range(200):
        a = np.sqrt(a * 1.0001 + 1.0)
    counts = {}
    for i in range(50_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - start


def reference_now(passes: int = 3) -> float:
    """Seconds one reference pass takes now: the fastest of ``passes``."""
    return min(_reference() for _ in range(passes))


class SpeedSampler:
    """Times a phase of the main thread at the reference speed.

    While the phase runs, a ``SIGALRM`` interval timer interrupts it
    every ``interval_s`` for one reference pass; a last pass closes the
    phase.  Each stretch of work between two passes is scaled by the
    pass that ends it (``stretch * REFERENCE_S / pass``), so work done
    while the machine was slow counts as slow however the slow spells
    fall.  The passes are not part of the phase's time.  Use it only
    around work that runs in the main thread (a pass in the handler
    would otherwise race the worker threads).
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: (seconds of work, reference seconds of the pass after it)
        self.stretches: List[Tuple[float, float]] = []
        self._mark = 0.0
        self._handler = None

    def _sample(self, *_args) -> None:
        worked = time.perf_counter() - self._mark
        self.stretches.append((worked, _reference()))
        self._mark = time.perf_counter()

    def __enter__(self) -> "SpeedSampler":
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    @property
    def raw_s(self) -> float:
        """Seconds the phase worked, passes taken out."""
        return sum(worked for worked, _ in self.stretches)

    @property
    def scaled_s(self) -> float:
        """The phase's time at the reference speed."""
        return sum(worked * REFERENCE_S / ref
                   for worked, ref in self.stretches)

    @property
    def reference_s(self) -> float:
        """The one reference pass time that scales ``raw_s`` to
        ``scaled_s``: a time-weighted harmonic mean of the passes."""
        return self.raw_s * REFERENCE_S / self.scaled_s
