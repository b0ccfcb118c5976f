"""repro.sched — the virtual-time scheduler of modeled runs.

A virtual SPMD run advances epoch by epoch (the steps between two
output barriers) as NumPy recurrences over every rank at once
(:mod:`repro.sched.vector`): compute, halo exchange, NIC contention and
parallel I/O overlap in virtual time, and the epoch's intervals feed
both the Perfetto timeline and the sampling profile
(:mod:`repro.sched.profiler`). See ``docs/SCHEDULER.md``.
"""

from repro.sched.profiler import SimProfiler, collapse_label
from repro.sched.vector import (
    EpochEventQueue,
    EpochResult,
    EpochSpec,
    EpochWrites,
    emit_epoch_spans,
    replay_allreduce,
    simulate_epoch,
)

__all__ = [
    "EpochEventQueue",
    "EpochResult",
    "EpochSpec",
    "EpochWrites",
    "SimProfiler",
    "collapse_label",
    "emit_epoch_spans",
    "replay_allreduce",
    "simulate_epoch",
]
