"""A fixed reference workload that tracks how fast the machine runs right now.

On a shared machine other tenants slow a process down by a quarter or more
for seconds at a time, which swamps the differences the benchmark exists to
show.  ``Reference`` times a small, fixed piece of Python and numpy work
(the benchmark's own code, not the program's) every ``EVERY_S`` seconds
between pairs.  A pair's measured seconds are multiplied by
``REFERENCE_S / (reference time around the pair)``: they become seconds on
a machine where one reference call takes ``REFERENCE_S``.  A change to the
program moves these adjusted seconds exactly as it moves the raw ones; a
slow phase of the machine moves both the pair and the reference, and
cancels.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

__all__ = ["REFERENCE_S", "Reference"]

# Seconds one reference call took on a quiet x86_64 machine (Python 3.11,
# numpy 2.4); the adjusted times are expressed at this speed.
REFERENCE_S = 5.0e-4
EVERY_S = 0.5
SLICE_S = 0.02

_MATRIX = np.random.default_rng(20100309).standard_normal((40, 40))


def reference_call() -> None:
    """Gaussian elimination with partial pivoting on a fixed 40x40 matrix."""
    a = _MATRIX.copy()
    for k in range(a.shape[0] - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])


class Reference:
    """Samples of the reference workload's speed over one run."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.seconds: list[float] = []  # seconds per reference call then

    def sample(self) -> None:
        start = time.perf_counter()
        calls = 0
        while time.perf_counter() - start < SLICE_S:
            reference_call()
            calls += 1
        self.times.append(start)
        self.seconds.append((time.perf_counter() - start) / calls)

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, at: float) -> float:
        """REFERENCE_S over the mean of the samples just before and after ``at``."""
        i = bisect.bisect_right(self.times, at)
        near = self.seconds[max(i - 1, 0) : i + 1]
        return REFERENCE_S / (sum(near) / len(near))
