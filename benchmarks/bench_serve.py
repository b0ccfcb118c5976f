"""Service load benchmark: hundreds of concurrent synthetic clients.

Replays a seeded client mix (hot-key repeats + unique parameter
variations, bursty arrivals) against a fresh :class:`repro.serve.
SimService` and reports what the service contract promises: hit and
miss latency p50/p99, saturation throughput, and the hit/miss p99
ratio. Exit 1 when a job fails, when the load measured no hits or no
misses, or when the ratio exceeds
:data:`repro.serve.loadgen.HIT_MISS_P99_LIMIT` (0.10: cache hits must
stay >= 10x faster at the tail). CI runs ``--quick --out -`` in the
``serve-smoke`` job.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --clients 200 --requests 10 --workers 4 --backend process

Results are written to ``BENCH_serve.json`` next to the repo root by
default (``--out`` redirects, ``--out -`` skips the file).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

#: schema identifier written to BENCH_serve.json
SCHEMA = "repro.bench.serve/1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale load (a few dozen requests, seconds to run)",
    )
    parser.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="concurrent synthetic clients (default: 200, quick: 20)",
    )
    parser.add_argument(
        "--requests", type=int, default=None, metavar="R",
        help="requests per client (default: 10, quick: 5)",
    )
    parser.add_argument(
        "--hit-fraction", type=float, default=0.8, metavar="F",
        help="fraction of requests repeating the hot configuration "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--pace", type=float, default=0.0, metavar="SEC",
        help="bursty inter-arrival scale in seconds "
             "(default: 0 = closed-loop saturation)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="compute workers behind the queue (default: %(default)s)",
    )
    parser.add_argument(
        "--backend", choices=["process", "thread", "inline"],
        default="thread", help="compute backend (default: %(default)s)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=256, metavar="N",
        help="admission queue bound (default: %(default)s)",
    )
    parser.add_argument(
        "--L", type=int, default=24, metavar="N",
        help="grid edge of the benchmarked workflow (default: %(default)s)",
    )
    parser.add_argument(
        "--steps", type=int, default=8, metavar="N",
        help="solver steps per job (default: %(default)s)",
    )
    parser.add_argument(
        "--out", default="BENCH_serve.json", metavar="PATH",
        help="results JSON path; '-' skips writing (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    from repro.core.settings import GrayScottSettings
    from repro.serve.loadgen import HIT_MISS_P99_LIMIT, run_load

    clients = args.clients if args.clients is not None else (
        20 if args.quick else 200
    )
    requests = args.requests if args.requests is not None else (
        5 if args.quick else 10
    )

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        settings = GrayScottSettings(
            L=args.L,
            steps=args.steps,
            plotgap=max(1, args.steps // 2),
            output=str(Path(tmp) / "serve.bp"),
        )
        report, stats = run_load(
            settings,
            clients=clients,
            requests=requests,
            hit_fraction=args.hit_fraction,
            workers=args.workers,
            backend=args.backend,
            max_pending=args.max_pending,
            pace=args.pace,
            workdir=str(Path(tmp) / "jobs"),
        )

    print(report.render())
    print()
    print(f"saturation throughput: {report.throughput:.1f} jobs/s "
          f"({args.backend} backend, {args.workers} worker(s))")
    store = stats["store"]
    print(f"service cache: {store['hits']} hits / {store['misses']} misses "
          f"({store['hit_rate'] * 100:.1f}%), "
          f"{stats['coalesced']} coalesced")

    if args.out != "-":
        payload = {
            "schema": SCHEMA,
            "quick": args.quick,
            "backend": args.backend,
            "workers": args.workers,
            "settings": {"L": args.L, "steps": args.steps},
            "load": report.as_dict(),
            "service": stats,
        }
        out = Path(args.out)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"results written to {out}")

    if report.failed:
        print(f"FAIL: {report.failed} job(s) failed", file=sys.stderr)
        return 1
    ratio = report.hit_miss_p99_ratio
    if ratio is None:
        print("FAIL: hit/miss p99 ratio not measured (the load needs "
              "both cache hits and cache misses)", file=sys.stderr)
        return 1
    if ratio > HIT_MISS_P99_LIMIT:
        print(f"FAIL: hit/miss p99 ratio {ratio:.3f} above the "
              f"{HIT_MISS_P99_LIMIT:.2f} contract (hits must be >= "
              f"{1 / HIT_MISS_P99_LIMIT:.0f}x faster)", file=sys.stderr)
        return 1
    print(f"serve gate passed: hit/miss p99 ratio {ratio:.3g} "
          f"(limit {HIT_MISS_P99_LIMIT:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
