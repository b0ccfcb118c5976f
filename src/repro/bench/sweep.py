"""The job-size ladder shared by the Frontier-scale models.

The paper runs every weak-scaling experiment over the same factor-of-8
job-size ladder (Section 4.1): 1 -> 8 -> 64 -> 512 -> 4,096 GPUs. Both
:class:`repro.mpi.netmodel.WeakScalingModel` (Fig. 6) and
:class:`repro.adios.fsmodel.IoWeakScalingModel` (Fig. 8) — and the
figure drivers in :mod:`repro.bench.fig6` / :mod:`repro.bench.fig8` —
take their default ladder from here instead of each hard-coding it.
Each ladder point is a few array passes, so the ladders run serially.
"""

from __future__ import annotations

#: the paper's factor-of-8 job-size ladder (ranks == GCDs)
RANK_LADDER: tuple[int, ...] = (1, 8, 64, 512, 4096)
