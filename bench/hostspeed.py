"""The host's speed now, against a fixed reference, for the time metrics.

On a shared host the same code runs up to 1.6 times slower in some
stretches than in others, for minutes at a time, while CPU time still
equals wall time: whole runs of identical code differed that much.  The
benchmark therefore reads the host's speed between items, with a fixed
pure-Python loop, and reports each end-to-end time in *reference
seconds*: the wall time scaled by how much slower than ``REF_S`` the loop
ran around it.  The loop is benchmark code, so a change to polydet moves
these times one for one; a slow stretch of the host moves the loop as
well and cancels.  Every run also prints its raw wall-clock figures on
stderr.
"""

from __future__ import annotations

import math
import time

LOOP = 20000     # iterations of one reading's loop
REPS = 5         # loops per reading; a reading is their mean
REF_S = 1.5e-3   # seconds of one loop at the reference speed


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def loop_seconds() -> float:
    """Seconds of one loop now (the mean of REPS, about 8 ms in all)."""
    a = time.perf_counter()
    for _ in range(REPS):
        _spin(LOOP)
    return (time.perf_counter() - a) / REPS


def scale(*readings: float) -> float:
    """Factor from wall seconds to reference seconds for work done among
    these readings (REF_S over their geometric mean)."""
    return REF_S / math.exp(sum(map(math.log, readings)) / len(readings))
