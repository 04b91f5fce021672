"""Reference kernel that tracks the interpreter's current speed.

On a shared host the speed of pure-Python code swings by up to 1.9x in
phases of seconds to about a minute, which is more than a run can average
out.  Each worker therefore runs this fixed kernel between operations
(never inside a timed call), about every SAMPLE_EVERY_S of wall time, and
run.py scales every operation's time by REF_KERNEL_S over the median kernel
time around it.  Reported times are thus seconds at a fixed reference speed:
the speed at which the kernel takes REF_KERNEL_S.

The kernel imports nothing from valcuts, so no change to the library moves
it.  It mixes a small-integer loop with Fraction arithmetic because, measured
on the sandbox this benchmark was built on, the first alone under-reacts to
the host's phases and the second alone over-reacts; together they follow
the library's own operations closely.  Collection is switched off while it
runs so that the library's heap does not change its cost.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 1.0e-3
SAMPLE_EVERY_S = 0.01
WINDOW_S = 0.25  # kernel samples this close to an operation scale it
MIN_SIDE = 2  # ... and at least this many on each side of it


def _kernel():
    x = 0
    for i in range(4000):
        x = (x * 31 + i) % 1000003
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return x, s


def sample() -> float:
    """One kernel run's wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factors(starts, durations, k_starts, k_times) -> list[float]:
    """REF_KERNEL_S / (median kernel time around each operation).

    k_starts must be ascending.  The kernel samples used for an operation are
    those that start within WINDOW_S of it, and at least MIN_SIDE on each side.
    """
    n = len(k_starts)
    if not n:
        raise ValueError("no kernel samples")
    out = []
    for t0, dt in zip(starts, durations):
        t1 = t0 + dt
        lo = min(bisect.bisect_left(k_starts, t0 - WINDOW_S),
                 bisect.bisect_left(k_starts, t0) - MIN_SIDE)
        hi = max(bisect.bisect_right(k_starts, t1 + WINDOW_S),
                 bisect.bisect_right(k_starts, t1) + MIN_SIDE)
        out.append(REF_KERNEL_S / statistics.median(k_times[max(0, lo):min(n, hi)]))
    return out
