"""A fixed reference loop, timed throughout a run to track the host's speed.

On a shared host the same work can take twice as long when neighbours are
busy, and such phases last from seconds to minutes.  Medians of raw pass
times then spread 15-30% from one run to the next.  A fixed loop of the same
kind of work as the workloads (small complex matvecs driven from Python)
slows down in step with them, so a pass time divided by the reference time
measured during that pass stays steady where the raw time does not.

The loop uses two sizes.  A 25 x 25 matvec (the dimension-5 generator) is
arithmetic-heavy and a 4 x 4 one is bound by call overhead; contention
slows the two by different amounts, and the workloads lie between them.
Against the static and driven kernels, validation and the Tikhonov
integrator, the ratio spread 1-2.5% over 20-s windows with the pair,
against 2.5-4% with a single 16 x 16 loop.

The loop runs from a timer signal every INTERVAL_S seconds while a pass is
in progress; its own time is subtracted from the pass it interrupted.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
LOOPS = ((25, 650), (4, 1100))  # (matrix dimension, iterations)


class Reference:
    """Times of the reference loop: (start, duration) pairs in perf_counter seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._loops = [
            (0.01 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))), iterations)
            for dim, iterations in LOOPS
        ]
        self.samples: list[tuple[float, float]] = []

    def _loop(self):
        for matrix, iterations in self._loops:
            v = np.ones(matrix.shape[0], dtype=np.complex128)
            for _ in range(iterations):
                v = v + 0.001 * np.dot(matrix, v)

    def time_once(self):
        start = time.perf_counter()
        self._loop()
        self.samples.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def sampling(self, around=contextlib.nullcontext):
        """Time the loop every INTERVAL_S seconds of wall time inside the block.

        Each sample runs inside the context manager ``around()`` returns, so a
        tracer can record it as a span and keep it out of the layers' times.
        """

        def on_alarm(*_):
            with around():
                self.time_once()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, start: float, end: float) -> float:
        """Pass time in units of the reference loop, for a pass from start to end.

        The loop time spent inside the pass is removed from it; the unit is
        the mean loop time inside the pass, since the pass time integrates
        the host's speed over the same interval.
        """
        inside = [d for s, d in self.samples if start <= s < end]
        if not inside:
            nearest = min(self.samples, key=lambda sample: abs(sample[0] - start))
            inside_busy, unit = 0.0, nearest[1]
        else:
            inside_busy, unit = sum(inside), statistics.fmean(inside)
        return (end - start - inside_busy) / unit
