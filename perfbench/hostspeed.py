"""Host-speed calibration: timings in seconds at the reference speed.

The reference host's vCPUs each switch between a fast state and one about
40% slower, independently of each other, in spells from a fraction of a
second to many minutes.  A pure-Python loop and a small numpy matmul slow
down by about the same factor.  A run that falls wholly in a slow spell is
slow in every round, so no estimator over rounds can take the spell out.

So the benchmark runs on one CPU and, on that CPU, times a fixed
calibration just before and just after each measured call.  A call's
time ``t`` is reported as ``t * REFERENCE_S / c``, where ``c`` is the
mean of the two calibration times: the seconds the call would take on a
host whose calibration takes ``REFERENCE_S``.  The calibration is the
benchmark's own code, so a change to cpcat cannot move it.
"""

from __future__ import annotations

import os
from time import perf_counter

# The calibration's time in the fast state of the reference host
# (2-core Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 1 thread).
REFERENCE_S = 0.003

_MATRIX = None


def _pass() -> float:
    """Seconds of one fixed pass of pure-Python and small-matmul work."""
    global _MATRIX
    if _MATRIX is None:
        import numpy as np
        _MATRIX = np.random.default_rng(0).normal(size=(128, 128))
    a = _MATRIX
    t0 = perf_counter()
    s = 0
    for i in range(40000):
        s += i * i
    for _ in range(16):
        a @ a
    return perf_counter() - t0


def calibrate() -> float:
    """Median seconds of three passes of the calibration loop.

    One pass can be stretched by an interrupt; the median of three
    halved the spread of kraus-large (0.086 to 0.041 over five runs).
    """
    return sorted(_pass() for _ in range(3))[1]


def around(call) -> tuple:
    """Run ``call()`` between two calibrations; returns its result and the
    factor that turns its seconds into seconds at the reference speed."""
    c0 = calibrate()
    result = call()
    c1 = calibrate()
    return result, REFERENCE_S * 2 / (c0 + c1)


def pin_to_one_cpu() -> int:
    """Pin this process, and the processes it starts, to one CPU; returns it.

    The vCPUs change speed independently, so a calibration says something
    about a call only if both ran on the same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
