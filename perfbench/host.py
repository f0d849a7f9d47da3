"""Host speed: a fixed calibration loop, the least slowed CPU, and a speed factor.

On the measured host (a 2-vCPU guest on a shared machine) each vCPU at times
runs up to about 2x slower, mostly one vCPU at a time, and the whole machine
drifts by about 20% over minutes.  Before each op, and before starting each
worker process, the benchmark runs a short probe loop on every CPU it may
use, moves its own process onto the fastest one (child processes inherit
that choice), and scales the time it then measures by
``REFERENCE_PROBE_MS / probe``.  This acts only on the benchmark's own
processes, and the probe runs no gmtannot code, so a change to gmtannot
cannot move it.
"""

from __future__ import annotations

import os
import time

PROBE_ITERATIONS = 5_000
#: What the probe takes on the reference host; a scaled time is the time the
#: work would have taken there.
REFERENCE_PROBE_MS = 0.4


def calibrate(iterations: int = 100_000) -> float:
    """Milliseconds for a fixed pure-Python loop; tracks the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000


def settle(cpus: list[int]) -> float:
    """Move onto the one of ``cpus`` where the probe runs fastest; return the speed factor.

    The factor is ``REFERENCE_PROBE_MS`` over the best of three probes there:
    below 1 when this host is slower than the reference host.
    """
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(calibrate(PROBE_ITERATIONS) for _ in range(3))
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return REFERENCE_PROBE_MS / timings[best]
