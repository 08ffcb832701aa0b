"""Host speed calibration: a fixed kernel timed between a session's commands.

On a shared virtual machine the speed of the host drifts by tens of percent
over minutes, for wall time and CPU time alike, so the medians of two runs
of the same code can differ by more than any useful bound. session.py
therefore times one pass of this kernel before the first command and after
every command, in the session's own process, and run.py scales the median
times of a run by REFERENCE_S / the median of all kernel times of the run's
sessions. A scaled time is in seconds at the host speed at which one
kernel pass takes REFERENCE_S. The kernel uses no monoidldp code, so a
change to the program moves the scaled times in the same proportion as the
wall times.

The kernel does the kind of work that dominates the program: building and
probing a dict of int keys, allocating tuples, sorting and joining strings.
The garbage collector is off while it runs, so the size of the program's
heap does not change the kernel's time.
"""
from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.08
_KEYS = 90_000
_ROWS = 40_000


def _kernel() -> int:
    rng = random.Random(1)
    keys = [rng.getrandbits(40) for _ in range(_KEYS)]
    table: dict[int, int] = {}
    for k in keys:
        table[k] = k & 255
    total = 0
    for k in reversed(keys):
        total += table[k]
    rows = [(i, i * 7 % 13, str(i)) for i in range(_ROWS)]
    rows.sort(key=lambda row: row[1])
    text = "\n".join(row[2] for row in rows)
    return total + len(text)


def kernel_s() -> float:
    """Seconds of one kernel pass at the host's current speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()

