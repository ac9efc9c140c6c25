"""Machine speed, sampled inside the process under test.

The 2-vCPU virtual machine used to tune the benchmark changes speed by up
to 2x, within a tenth of a second, and each vCPU on its own (README.md,
"Machine noise").  A `Ticker` times a short fixed kernel on a timer signal
every PERIOD_S, in the main thread of the process being measured, so each
sample measures the CPU that process runs on at that moment.
`reference_seconds` then turns a wall-clock interval into the time it would
take at the reference speed, so that the drift cancels out of the
end-to-end metrics.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

#: median time of one `kernel` run on that machine; a scaled time is the
#: time the work would take on a machine where the kernel takes this long
REFERENCE_S = 0.0005
# Sampling every 20 ms follows the drift about twice as closely as every
# 100 ms (README.md, "Machine noise"); the kernel then adds about 2.5%.
PERIOD_S = 0.02


def kernel() -> float:
    """Interpreter and small-array numpy work, like the package's scalar
    path, calling no package code."""
    a = np.arange(6.0)
    s = 0.0
    for i in range(60):
        s += float(np.sum(a * i)) % 7.0 + (i * i) % 13
    return s


class Ticker:
    """Context manager that times `kernel` every PERIOD_S on SIGALRM.

    `samples` holds the (start, end) `perf_counter` times of each kernel
    run, one taken on entry after an untimed run that warms the kernel up.
    The handler runs between bytecodes of the main thread, so the kernel
    shares the code under test's CPU and interrupts it, but never runs
    beside it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter()))

    def __enter__(self) -> Ticker:
        kernel()
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def reference_seconds(intervals: list[tuple[float, float]],
                      samples: list[tuple[float, float]]) -> list[float]:
    """Each (start, end) wall-clock interval as seconds at the reference speed.

    The time between two kernel runs is scaled by REFERENCE_S over the mean
    of their durations; time before the first or after the last run by that
    run's alone.  Time spent in the kernel itself counts as zero.  No
    smoothing: the speed changes faster than a few samples apart.
    """
    k = np.array([end - start for start, end in samples])
    starts = np.array([s for s, _ in samples])
    ends = np.array([e for _, e in samples])
    # gap j runs from the end of kernel j-1 to the start of kernel j
    lo = np.concatenate([[-np.inf], ends])
    hi = np.concatenate([starts, [np.inf]])
    speed = np.concatenate([[k[0]], (k[:-1] + k[1:]) / 2, [k[-1]]])
    factor = REFERENCE_S / speed
    out = []
    for a, b in intervals:
        overlap = np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None)
        out.append(float(np.dot(overlap, factor)))
    return out
