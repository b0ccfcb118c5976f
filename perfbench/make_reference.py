"""Regenerate ``reference.json``: the expected output of every workload input.

    python3 perfbench/make_reference.py            # from the repository root

Each reference comes from another code path than the one the benchmark
times, so agreement is evidence rather than a replay:

- ``workflow-2rank`` and ``serve-mixed``: the serial NumPy ``cpu``
  backend (the timed runs use the simulated-GPU ``julia`` backend, the
  workflow on two threaded ranks); the determinism contract makes every
  backend and decomposition bitwise identical;
- ``virtual-256k`` and ``virtual-traced``: the run sharded over two
  worker processes (``jobs=2``, each streaming its own trace shards),
  bit-identical to the timed single-process run.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SCRATCH = HERE.parent / ".perfbench" / "reference"


def workflow_reference(settings: dict) -> dict:
    from repro.core.execute import JobSpec, execute_job
    from repro.core.settings import GrayScottSettings

    output = SCRATCH / "reference.bp"
    spec = JobSpec(settings=GrayScottSettings(**{
        **settings, "backend": "cpu", "ranks": 0, "output": str(output)}))
    report = execute_job(spec).report
    return {"analysis": workloads.plain(report.analysis),
            "fields_sha256": workloads.fields_digest(output)}


def virtual_reference(workload: workloads.Virtual256k) -> dict:
    from repro.core.execute import JobSpec, execute_job
    from repro.core.settings import GrayScottSettings
    from repro.observe.stream import ShardedPerfettoWriter
    from repro.observe.trace import Tracer

    spec = JobSpec(settings=GrayScottSettings(**workload.settings()),
                   mode="virtual", virtual_ranks=workload.nranks,
                   overlap=True)
    extra = {}
    tracer = None
    if isinstance(workload, workloads.VirtualTraced):
        writer = ShardedPerfettoWriter(SCRATCH / "trace")
        tracer = Tracer(sinks=[writer], retain=False)
    result = execute_job(spec, jobs=2, tracer=tracer).virtual
    if tracer is not None:
        tracer.close()
        extra["spans"] = writer.total_spans
    return {"elapsed_seconds": result.elapsed_seconds,
            "checksum": float(result.results[0]),
            "events_processed": int(result.events_processed), **extra}


def main() -> int:
    out = {"schema": "perfbench.reference/1",
           "seed_pool": list(workloads.SEED_POOL), "workloads": {}}
    for tiny in (True, False):
        for cls in workloads.WORKLOADS.values():
            entries = {}
            for index, seed in enumerate(workloads.SEED_POOL):
                shutil.rmtree(SCRATCH, ignore_errors=True)
                SCRATCH.mkdir(parents=True)
                workload = cls(index, tiny, SCRATCH)
                if isinstance(workload, workloads.Virtual256k):
                    entries[str(seed)] = virtual_reference(workload)
                else:
                    entries[str(seed)] = workflow_reference(workload.settings())
                print(workload.ref_key, seed, flush=True)
            out["workloads"][workload.ref_key] = entries
    shutil.rmtree(SCRATCH.parent, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
