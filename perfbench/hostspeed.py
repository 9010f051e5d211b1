"""Host speed, sampled by a fixed calibration kernel run from a timer signal.

On a shared host the speed of the same code drifts, by up to 2x over tens of
seconds (see README.md, "Noise and host speed"). While a :class:`HostSpeed` is active, a
timer signal runs a fixed kernel every ``INTERVAL`` seconds of wall time and
records how long it took, so the drift is measured where and when it happens.
An interval's duration divided by the kernel's slowdown over the same
stretch of time is its duration at the reference speed, at which the kernel
takes ``KERNEL_REF_S``. The kernel's own time is subtracted from the
intervals it interrupts.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.2
KERNEL_REF_S = 0.005
# Samples this close to an interval also describe the host speed during it.
WINDOW = 1.0


def kernel() -> int:
    """Fixed interpreter work (union-find, dict, bit tricks) plus numpy calls."""
    parent = list(range(512))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    acc = 0
    table: dict[int, int] = {}
    for i in range(6000):
        a, b = find((i * 7919) & 511), find((i * 104729) & 511)
        if a != b:
            parent[a] = b
        m = (i * 2654435761) & 0xFFFFF
        table[m & 1023] = table.get(m & 1023, 0) + m.bit_count()
        acc += (m & -m).bit_length()
    x = np.arange(1, 80, dtype=float)
    ones = np.ones(40)
    for _ in range(300):
        acc += int(np.argmax((x[:, None] * x[None, :40]) @ ones))
    # subset tests of candidate masks against member masks, as the oracles do
    cand = (np.arange(400, dtype=np.int64) * 2654435761) & 0x3FF
    members = (np.arange(350, dtype=np.int64) * 40503) & 0x3FF
    weights = np.linspace(-1.0, 1.0, 350)
    for _ in range(3):
        meet = cand[:, None] & members[None, :]
        acc += int(np.argmax((meet == members[None, :]) @ weights))
    return acc


class HostSpeed:
    """Context manager sampling the kernel's time every ``INTERVAL`` seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, kernel seconds)
        self.spent = 0.0  # total time spent in the signal handler
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += perf_counter() - start
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run(self, fn):
        """Call ``fn``; returns ``(result, (start, end, seconds))``.

        ``seconds`` is the wall time of the call minus the kernel's time.
        """
        start, spent = perf_counter(), self.spent
        result = fn()
        end = perf_counter()
        return result, (start, end, end - start - (self.spent - spent))

    def reference_seconds(self, interval) -> float:
        """An interval's seconds rescaled to the reference speed."""
        start, end, seconds = interval
        near = [d for t, d in self.samples if start - WINDOW <= t <= end + WINDOW]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return seconds * KERNEL_REF_S / statistics.median(near)
