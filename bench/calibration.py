"""A fixed reference loop, timed between requests, that end-to-end times are scaled by.

On a shared virtual machine the speed of the same code drifts by up to 2x
in phases that last minutes, longer than a run, so raw times of the same
program differ more from run to run than any useful regression bound.  The
drift hits this loop and the program alike: timed right before and after
each request, the ratio request time / loop time spreads from one
30-s window to the next about half as much as the raw time (see
README.md).  End-to-end timings other than set-up are therefore reported
as *reference seconds*: ``raw * REFERENCE_S / measured`` per loop call,
the time the request would have taken at a speed where one loop call takes
10 ms, about the usual speed of a 2-vCPU 2.0 GHz Xeon VM with Python 3.11
(single thread and pool alike).

The loop is the benchmark's own code and never calls the package, so a
change to the package moves the scaled times exactly as it moves the raw
ones.  It imitates the program's hot loops: per-step float arithmetic,
``math`` calls, a store into a numpy row and a formatted number.  Scans run
their points on a thread pool of ``os.cpu_count()`` workers, whose GIL
hand-offs drift differently from one thread, so their loop runs on such a
pool too (mode ``"pool"``); everything else uses mode ``"single"``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Iterations of one loop call.
STEPS = 6000

#: Seconds per loop call at the reference speed.
REFERENCE_S = 0.010


def loop(steps=STEPS):
    out = np.empty((steps + 1, 3))
    x, y, z = 0.0, 0.0, 1.0
    h = 1e-3
    text = ""
    for k in range(steps):
        t = k * h
        wx, wy, wz = math.sin(t), 0.3, math.cos(t)
        x, y, z = (x + h * (wy * z - wz * y), y + h * (wz * x - wx * z),
                   z + h * (wx * y - wy * x))
        out[k + 1] = (x, y, z)
        if k % 16 == 0:
            text = f"{t:.6e},{x:.9e}"
    return out, text


def block(mode, calls):
    """Time ``calls`` loop calls; returns (seconds, the same at reference speed)."""
    t0 = time.perf_counter()
    if mode == "pool":
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            list(pool.map(lambda _: loop(), range(calls)))
    else:
        for _ in range(calls):
            loop()
    return time.perf_counter() - t0, calls * REFERENCE_S
