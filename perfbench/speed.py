"""The host's current speed, from a fixed probe timed in every iteration.

On a shared VM the speed of the same code drifts by up to 1.6x in
phases of seconds to minutes: the CPU time of a fixed loop moves with
its wall time, so the drift is a slower core, not stolen time, and no
statistic over one 30 s run removes it. Every iteration therefore also
times a fixed probe that does not touch the program under test, and
``run.py`` scales a run's time metrics by

    REFERENCE_S / (median probe time of the run's iterations)

A scaled time reads "seconds on this host at its reference speed": a
change to the program moves it as much as it moves the raw time, while
a slow phase of the host slows the probe too and cancels out.

The probe is a NumPy stencil sweep on 64^3 arrays, the size and kind of
work of the Gray-Scott kernels, timed pinned to each CPU in turn. Over
five minutes of back-to-back ``workflow-2rank`` iterations, in which
the raw medians of ten iterations spread by 0.22-0.28 (IQR / median),
the scaled ones spread by 0.04-0.07; an unpinned probe left 0.04-0.10.
A pure-Python loop tracked the drift worse than no probe at all, and a
40^3 stencil, whose data fit in cache, only part of the way. The
interpreted code of the virtual models drifts more than any probe tried
and follows this one only in part (correlation 0.3-0.7); there the
best-iteration statistic of ``run.py`` does most of the steadying.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

#: probe time of the 2-vCPU VM the benchmark was tuned on, in a quiet phase
REFERENCE_S = 0.025
#: repetitions per probe; the probe is the fastest (slow outliers are noise)
REPEATS = 3
#: stencil sweeps per repetition
SWEEPS = 6
#: CPUs probed, each on its own
MAX_CPUS = 4

_FIELD = np.random.default_rng(0).random((64, 64, 64))


def _sweeps() -> None:
    u = _FIELD.copy()
    for _ in range(SWEEPS):
        lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
               + np.roll(u, -1, 1) + np.roll(u, 1, 2) + np.roll(u, -1, 2)
               - 6.0 * u)
        u = u + 0.1 * lap


def _fastest() -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _sweeps()
        times.append(time.perf_counter() - start)
    return min(times)


def probe() -> float:
    """Seconds of the fixed work: geometric mean over this process's CPUs.

    The work runs pinned to each CPU in turn (at most MAX_CPUS), since
    the drift is per core and a run uses every core: ranks or service
    workers wait for the slower one, and a single thread migrates.
    """
    if not hasattr(os, "sched_setaffinity"):
        return _fastest()
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_fastest())
    finally:
        os.sched_setaffinity(0, cpus)
    return math.prod(times) ** (1 / len(times))


def scale(probes) -> float:
    """Factor turning a run's raw seconds into reference-speed seconds."""
    return REFERENCE_S / statistics.median(probes)
