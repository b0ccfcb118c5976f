"""Million-rank virtual SPMD smoke: sharded vector engine + streamed trace.

Runs a 1,048,576-rank :class:`repro.core.virtual.VirtualWorkflow` on the
NumPy epoch-queue engine, sharded node-aligned over ``--jobs`` pool
workers, with every worker streaming its own Perfetto shard files into
one trace directory (:class:`repro.observe.stream.ShardedPerfettoWriter`).
The machine model extrapolates Frontier to the 131,072 nodes the rank
count needs; the schedule is the CI-quick ``steps=1, plotgap=1`` epoch
(one output step), which still exercises JIT warm-up, the halo step,
the BP5 leader writes, and the final allreduce on every rank.

Pass/fail contract (exit 1 on violation):

- the run completes inside ``--budget`` wall seconds;
- :func:`repro.observe.export.validate_chrome_trace` passes on the
  shard directory — it checks shards record by record in bounded
  memory (:func:`repro.observe.stream.validate_shard_stream`), so the
  check itself stays inside the CI budget;
- the shard manifest's declared span count matches the modeled event
  schedule (every rank's jit/kernel/halo span plus one write span per
  node leader);
- on a fixed 2,048-rank overlap run (10 steps, output every 5), the
  epoch engine's event rate is at least :data:`MIN_RATE_SPEEDUP` (5x)
  that of the per-rank generator oracle
  (``tests/oracles/virtual.py``'s ``run_serial``), best of 3
  interleaved passes each.

Results land in ``BENCH_vspmd.json``. CI runs this in the
``bench-vspmd`` job; locally::

    PYTHONPATH=src python benchmarks/bench_vspmd.py --jobs 8
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

#: floor on the epoch engine's event rate over the generator reference
MIN_RATE_SPEEDUP = 5.0

#: virtual ranks of the event-rate comparison (independent of --ranks)
RATE_CHECK_RANKS = 2048


def measure_rate_speedup() -> float:
    """Epoch-engine over generator-reference event rate, best of each."""
    from repro.core.settings import GrayScottSettings
    from repro.core.virtual import VirtualWorkflow

    # the oracle lives with the tests, at the repository root
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.oracles.virtual import run_serial

    settings = GrayScottSettings(L=64, steps=10, plotgap=5, backend="julia")

    def rate(method) -> float:
        workflow = VirtualWorkflow(
            settings, nranks=RATE_CHECK_RANKS, overlap=True
        )
        t0 = time.perf_counter()
        result = method(workflow)
        return result.events_processed / (time.perf_counter() - t0)

    epoch = serial = 0.0
    for _ in range(3):
        epoch = max(epoch, rate(VirtualWorkflow.run))
        serial = max(serial, rate(run_serial))
    return epoch / serial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ranks", type=int, default=1_048_576,
        help="virtual ranks (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=8,
        help="pool workers / shards (default: %(default)s)",
    )
    parser.add_argument(
        "--budget", type=float, default=300.0, metavar="SECONDS",
        help="wall-clock budget for the run itself (default: %(default)s)",
    )
    parser.add_argument(
        "--out", default="BENCH_vspmd.json", metavar="PATH",
        help="where to write the results JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="keep the streamed shard directory here (default: a "
             "temporary directory, removed after validation)",
    )
    args = parser.parse_args(argv)

    from repro.core.settings import GrayScottSettings
    from repro.core.virtual import VirtualWorkflow
    from repro.observe.export import validate_chrome_trace
    from repro.observe.stream import ShardedPerfettoWriter, load_manifest
    from repro.observe.trace import Tracer
    from repro.util.files import atomic_write_text

    settings = GrayScottSettings(L=64, steps=1, plotgap=1, backend="julia")

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.trace_dir) if args.trace_dir else Path(tmp) / "vspmd"
        sink = ShardedPerfettoWriter(root)
        tracer = Tracer(sinks=[sink], retain=False)
        workflow = VirtualWorkflow(
            settings, nranks=args.ranks, overlap=True, tracer=tracer,
        )
        t0 = time.perf_counter()
        result = workflow.run(jobs=args.jobs)
        tracer.close()
        wall = time.perf_counter() - t0

        manifest = load_manifest(root)
        declared = sum(int(s.get("spans", 0)) for s in manifest["shards"])
        # the modeled schedule: every rank jit-compiles once, runs one
        # kernel+halo step, and each node leader writes one output
        expected = 3 * args.ranks + workflow.placement.nnodes

        t0 = time.perf_counter()
        problems = validate_chrome_trace(root)
        validate_wall = time.perf_counter() - t0

        if wall > args.budget:
            failures.append(
                f"run took {wall:.1f}s, over the {args.budget:.0f}s budget"
            )
        if problems:
            failures.extend(f"trace: {p}" for p in problems[:10])
        if declared != expected:
            failures.append(
                f"manifest declares {declared} spans, schedule "
                f"expected {expected}"
            )
        rate_speedup = measure_rate_speedup()
        if rate_speedup < MIN_RATE_SPEEDUP:
            failures.append(
                f"epoch-engine event rate is only {rate_speedup:.2f}x the "
                f"generator reference at {RATE_CHECK_RANKS} ranks, below "
                f"the {MIN_RATE_SPEEDUP:.1f}x floor"
            )

        payload = {
            "schema": "repro.bench.vspmd/1",
            "virtual_ranks": args.ranks,
            "nodes": workflow.placement.nnodes,
            "machine": workflow.machine.name,
            "jobs": args.jobs,
            "steps": settings.steps,
            "overlap": True,
            "wall_seconds": round(wall, 3),
            "budget_seconds": args.budget,
            "events": result.events_processed,
            "events_per_second": round(result.events_processed / wall, 1),
            "modeled_elapsed_seconds": round(result.elapsed_seconds, 6),
            "spans": declared,
            "shard_files": len(manifest["shards"]),
            "validate_seconds": round(validate_wall, 3),
            "trace_valid": not problems,
            "rate_check_ranks": RATE_CHECK_RANKS,
            "rate_speedup": round(rate_speedup, 3),
            "min_rate_speedup": MIN_RATE_SPEEDUP,
            "failures": failures,
        }

    out = Path(args.out)
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(
        f"vspmd: {args.ranks} ranks on {payload['nodes']} nodes "
        f"({payload['machine']}), jobs={args.jobs}: "
        f"{wall:.1f}s wall, {payload['events_per_second']:.0f} events/s, "
        f"{declared} spans in {payload['shard_files']} shard files "
        f"(validated in {validate_wall:.1f}s)"
    )
    print(
        f"event rate at {RATE_CHECK_RANKS} ranks: {rate_speedup:.1f}x the "
        f"generator reference (floor {MIN_RATE_SPEEDUP:.1f}x)"
    )
    print(f"results written to {out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
