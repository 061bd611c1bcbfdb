"""The machine's speed, read from a fixed reference computation.

On a shared host the same op runs up to twice as slow, for fractions of a
second to minutes at a time, as other tenants come and go.  A run
therefore times a fixed reference kernel, which no change to the library
touches, every quarter second between its ops, and scales each op time to
the host speed at which the reference kernel takes ``NOMINAL_S``, by
``(NOMINAL_S / m) ** EXPONENT``, where ``m`` is the median of the readings
taken within ``WINDOW_S`` of the op.

The op times do not move one for one with the reference: over 1 s bins of
runs on a 2-vCPU Intel Xeon VM, the log of the op time followed the log of
the reference time with a slope of 0.70-0.73 on all three workloads
(correlation 0.88-0.97).  On five seeds of each workload, scaling by the
readings within 1 s of each op narrowed the spread between runs of the
timing metrics against scaling every op by the run's median reading
(random-2d op_s.p50: 0.043 against 0.087, as 1.35 standard deviations of
the log); the single reading next to an op is noisier than the host's
speed.  The raw wall-clock figures stay in the run's record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The reference kernel's time at the host speed the scaled figures are
# quoted at: a middling reading on the machine above, where the readings
# ran from 0.9 to 2.2 ms.
NOMINAL_S = 1.4e-3
# How op times follow the reference time across host states (see above).
EXPONENT = 0.7
# Wall time between two readings of the reference.
EVERY_S = 0.25
# An op is scaled by the readings taken from this long before it starts to
# this long after it ends: several readings, as they come every EVERY_S.
WINDOW_S = 1.0
_REPEATS = 3

_A = np.linspace(-1.0, 1.0, 96)


def reference_kernel() -> float:
    """A fixed mix of interpreter work (dict, list and float operations)
    and small numpy calls, the kind of work the solver's inner loops do,
    on a working set of a few KB."""
    acc, seen = 0.0, {}
    for k in range(2200):
        j = (k * 37) % 96
        seen[j] = seen.get(j, 0.0) + 0.5 * j
        acc += seen[j] * 1e-3
    for k in range(120):
        r = _A * _A[k % 96] - _A[::-1]
        acc += float(r.min()) + int(np.argmin(r))
    return acc


def reference_s() -> float:
    """Median wall time of a few back-to-back reference kernels, after one
    untimed run that brings the kernel's code and data back into cache."""
    reference_kernel()
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Reference readings taken between the ops of a loop."""

    def __init__(self):
        self.readings: list = []  # reference seconds
        self.at: list = []  # perf_counter time of each reading, ascending

    def mark(self) -> None:
        self.readings.append(reference_s())
        self.at.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.at[-1] >= EVERY_S

    def factor(self, start: float, end: float) -> float:
        """The factor that scales the time of an op that ran from ``start``
        to ``end`` (perf_counter) to nominal speed: below 1 when the host
        ran slower than nominal around it."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.readings[lo:hi] or [self.readings[min(lo, len(self.readings) - 1)]]
        return (NOMINAL_S / statistics.median(near)) ** EXPONENT
