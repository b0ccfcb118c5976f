"""repro.serve: the simulator as an always-on cached service.

The ROADMAP's "millions of users" direction: instead of one-shot CLI
invocations that re-execute identical configurations from scratch, a
long-running asyncio service accepts :class:`~repro.core.execute.
JobSpec` requests, answers repeats from a :class:`ResultStore` keyed on
the spec's canonical content hash (byte-identical reports, never
recomputed), coalesces identical in-flight requests, applies admission
control with bounded backpressure, executes misses on threads or on
the :class:`repro.par.WorkerPool` worker processes, and streams job
lifecycle /metrics events to attached clients over the
:mod:`repro.adios.sst` broker.

Layers:

- :mod:`repro.serve.store` — the canonical-hash result cache;
- :mod:`repro.serve.service` — the asyncio front end;
- :mod:`repro.serve.loadgen` — synthetic clients for the
  ``bench_serve`` load benchmark and the CI smoke job.

See docs/SERVICE.md for architecture, cache-key semantics, and the
backpressure policy.
"""

from repro.serve.loadgen import LoadReport, generate_specs, run_load
from repro.serve.service import JobRecord, ServiceStats, SimService
from repro.serve.store import CacheEntry, ResultStore
from repro.util.errors import AdmissionError, ServeError

__all__ = [
    "AdmissionError",
    "CacheEntry",
    "JobRecord",
    "LoadReport",
    "ResultStore",
    "ServeError",
    "ServiceStats",
    "SimService",
    "generate_specs",
    "run_load",
]
