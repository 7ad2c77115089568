"""A fixed probe of the host's current speed.

On a shared host the same pass can take 30% longer from one minute to the
next while its CPU time equals its wall time: other tenants slow the core
down, not the scheduler.  The benchmark therefore runs this probe between
set-ups and passes, and reports each set-up's time and each pass's
throughput at reference speed: scaled by ``speed_factor`` of the probes
just before and just after it.  The probe runs none of the engine's code,
so a change to the engine cannot move it.

Its work is what the engine's kernels spend their time on: interpreter-bound
dict, list and float work, a sort of tuples and a few small numpy calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median probe wall on the host the benchmark was tuned on (4 shared
# vCPUs, Python 3.11, numpy 1.26)
REF_S = 0.030
REPS = 5
# a pass's wall moves a little less than the probe's, because part of it
# (Ray's dispatch and inter-process waits) does not scale with the core's
# speed.  Fitted over ~70 runs of both apply workloads, with the probe's
# median between 0.016 and 0.054 s, log(pass wall) rose 0.8-0.95 times as
# fast as log(probe wall); 0.9 kept the median of ten runs within 7% across
# a doubling of the host's speed
EXPONENT = 0.9


def _work() -> float:
    acc = 0.0
    d: dict[int, float] = {}
    for i in range(40_000):
        d[i & 1023] = d.get(i & 1023, 0.0) + (i % 7) * 0.5
        acc += d[i & 1023] * 1e-6
    rows = [(i, float(i) * 0.25, str(i)) for i in range(20_000)]
    rows.sort(key=lambda r: -r[1])
    a = np.arange(1, 50_001, dtype=np.float64)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
        acc += float(a[:64].sum()) * 1e-9
    return acc


def probe() -> list[float]:
    """Walls of REPS runs of the fixed work, in seconds.  A single run
    varies by a third from one second to the next, so the caller takes the
    median of several."""
    walls = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _work()
        walls.append(time.perf_counter() - t0)
    return walls


def speed_factor(walls: list[float]) -> float:
    """How much slower than the reference host the probe ``walls`` ran, as
    a factor on a pass's wall: ``(median / REF_S) ** EXPONENT``."""
    return (statistics.median(walls) / REF_S) ** EXPONENT
