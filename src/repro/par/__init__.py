"""repro.par — process-parallel fan-out with deterministic merge.

The paper's evaluation is embarrassingly parallel at the campaign
level: the fig6/fig8 weak-scaling ladders and the virtual-SPMD runs
are independent configurations. This package spreads them over worker
processes while keeping every output bit-identical to a serial run:

- :class:`~repro.par.pool.WorkerPool` — the package's one
  worker-process pool (persistent workers, ``submit() -> Future``,
  shm transport both ways), which the service's ``process`` backend
  uses too;
- :func:`~repro.par.pool.run_tasks` — ordered fan-out on a
  ``WorkerPool`` (chunked work-stealing, results merged by task index,
  per-chunk trace capture);
- :mod:`repro.par.shm` — shared-memory zero-copy transport for large
  NumPy payloads (pickle below :data:`~repro.par.shm.SHM_THRESHOLD`);
- :mod:`repro.par.tracemerge` — folding per-worker span/metric capture
  into one Perfetto timeline with per-worker PID lanes.

Entry points: ``--jobs N`` on the ``run`` and ``bench`` CLI commands,
``jobs=`` keywords on ``bench.sweep.run_ladder``, the fig6/fig8
drivers, and ``VirtualWorkflow.run``. See
``docs/PARALLEL.md`` for the determinism contract.
"""

from repro.par.pool import WorkerPool, default_chunksize, resolve_jobs, run_tasks
from repro.par.shm import SHM_THRESHOLD, ShmRef, decode, encode
from repro.util.errors import ParError

__all__ = [
    "SHM_THRESHOLD",
    "ParError",
    "ShmRef",
    "WorkerPool",
    "decode",
    "default_chunksize",
    "encode",
    "resolve_jobs",
    "run_tasks",
]
