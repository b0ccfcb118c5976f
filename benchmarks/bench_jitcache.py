"""JIT warm-start benchmark CLI: the Fig. 7 cold/warm gap, closed.

Two halves, both written to the schema-stable ``BENCH_jitcache.json``:

- **measured** — first-launch latency over distinct kernel
  specializations in a cold process (full trace) vs. a warm-started
  one (plans preloaded from the persistent :mod:`repro.gpu.jitcache`),
  each the best of 3 passes. Gated absolutely: warm p50 must stay
  below :data:`WARM_COLD_LIMIT` (0.20) of the cold p50 — warm starts
  at least 5x faster — and every persisted plan must be byte-identical
  to a fresh trace.
- **modeled** — the Figure 7 variant: per-GPU first-window bandwidth
  distributions with full JIT compilation vs. a persisted-plan load,
  reproducing the paper's ~12.5x cold cost factor and showing the warm
  start closing it to ~1x. Gated by the variant's shape checks.

CI runs ``--quick`` on every push (the ``jit-cache`` job) and uploads
the JSON as an artifact. Exit 1 when the warm gate or a shape check
fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCHEMA = "repro.bench.jitcache/1"

#: ceiling on the warm/cold first-launch p50 ratio: warm starts from
#: the persistent cache must answer first launches >= 5x faster
WARM_COLD_LIMIT = 0.20


def measure_warm_start(quick: bool) -> dict:
    """Cold vs warm-started first-launch latency over shape classes."""
    from repro.core.settings import GrayScottSettings
    from repro.core.stencil import kernel_args, make_gray_scott_kernel
    from repro.gpu import jitcache
    from repro.gpu.jit import TraceMemo, trace_kernel

    settings = GrayScottSettings(L=16, backend="julia")
    kernel = make_gray_scott_kernel()
    edges = range(8, 14) if quick else range(8, 24)
    arg_sets = []
    for edge in edges:
        shape = (edge,) * 3
        u, v = (np.ones(shape, order="F") for _ in range(2))
        u_new, v_new = (np.zeros(shape, order="F") for _ in range(2))
        arg_sets.append(
            kernel_args(u, v, u_new, v_new, settings.params(), seed=1, step=0)
        )

    def first_launches(memo: TraceMemo) -> list[float]:
        times = []
        for args in arg_sets:
            t0 = time.perf_counter()
            memo.trace(kernel, args)
            times.append(time.perf_counter() - t0)
        return times

    repeats = 3
    with tempfile.TemporaryDirectory() as tmp:
        # cold: a fresh process traces every specialization on first
        # launch (no disk tier attached — pure trace cost)
        cold_times = np.full(len(arg_sets), np.inf)
        for _ in range(repeats):
            cold_times = np.minimum(cold_times, first_launches(TraceMemo()))

        # persist every plan, as `run --jit-cache` would have
        seed_memo = TraceMemo()
        cache = jitcache.JitDiskCache(tmp)
        for args in arg_sets:
            key = seed_memo.signature(kernel, args, None)
            cache.store(key, kernel, seed_memo.trace(kernel, args))

        # warm: a fresh memo preloaded from the persisted plans — the
        # first launch of every specialization is already a memo hit
        warm_times = np.full(len(arg_sets), np.inf)
        for _ in range(repeats):
            warm_memo = TraceMemo()
            jitcache.warm_start(tmp, memo=warm_memo)
            warm_times = np.minimum(warm_times, first_launches(warm_memo))
        jitcache.deconfigure(memo=warm_memo)

        # every warm answer is byte for byte the plan a fresh trace of
        # the same specialization produces
        identical = all(
            jitcache.serialize_trace(warm_memo.trace(kernel, args))
            == jitcache.serialize_trace(trace_kernel(kernel, args))
            for args in arg_sets
        )

    cold_p50 = float(np.percentile(cold_times, 50))
    warm_p50 = float(np.percentile(warm_times, 50))
    return {
        "shape_classes": len(arg_sets),
        "cold_p50_seconds": cold_p50,
        "warm_p50_seconds": warm_p50,
        "warm_cold_ratio": warm_p50 / cold_p50,
        "plans_bit_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale sizes (fewer shape classes, fewer modeled GPUs)",
    )
    parser.add_argument(
        "--out", default="BENCH_jitcache.json", metavar="PATH",
        help="where to write the results JSON (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    from repro.bench import fig7
    from repro.util.files import atomic_write_text

    # measured: cold-vs-warm first-launch latency through the real cache
    measured = measure_warm_start(args.quick)
    ratio = measured["warm_cold_ratio"]
    print(
        f"measured first launch: cold p50 "
        f"{measured['cold_p50_seconds'] * 1e6:.1f} us, warm p50 "
        f"{measured['warm_p50_seconds'] * 1e6:.1f} us "
        f"(ratio {ratio:.4f}, limit {WARM_COLD_LIMIT:.2f})"
    )

    # modeled: the Fig. 7 variant at paper (or CI) scale
    ngpus = 256 if args.quick else 4096
    cold, warm = fig7.run_warm_comparison(ngpus=ngpus)
    print()
    print(fig7.render_warm(cold, warm))
    checks = fig7.warm_shape_checks(cold, warm)

    payload = {
        "schema": SCHEMA,
        "quick": args.quick,
        "measured": {
            "shape_classes": measured["shape_classes"],
            "cold_p50_seconds": round(measured["cold_p50_seconds"], 9),
            "warm_p50_seconds": round(measured["warm_p50_seconds"], 9),
            "warm_cold_ratio": round(ratio, 6),
            "warm_cold_limit": WARM_COLD_LIMIT,
            "plans_bit_identical": measured["plans_bit_identical"],
        },
        "modeled": {
            "ngpus": ngpus,
            "steps": cold.steps,
            "cold_cost_factor": round(cold.jit_cost_factor, 3),
            "warm_cost_factor": round(warm.jit_cost_factor, 3),
            "gap_closed_factor": round(
                cold.jit_cost_factor / warm.jit_cost_factor, 3
            ),
            "cold_mean_gb_s": round(float(cold.jit_gb_s.mean()), 3),
            "warm_mean_gb_s": round(float(warm.jit_gb_s.mean()), 3),
            "optimized_mean_gb_s": round(
                float(cold.optimized_gb_s.mean()), 3
            ),
            "shape_checks": checks,
        },
    }
    atomic_write_text(Path(args.out), json.dumps(payload, indent=2) + "\n")
    print(f"\nresults written to {args.out}")

    failures = []
    if ratio > WARM_COLD_LIMIT:
        failures.append(
            f"warm/cold first-launch p50 ratio {ratio:.4f} exceeds the "
            f"{WARM_COLD_LIMIT:.2f} limit (warm must be >= "
            f"{1 / WARM_COLD_LIMIT:.0f}x faster)"
        )
    if not measured["plans_bit_identical"]:
        failures.append("persisted plans are not bit-identical to fresh traces")
    failures.extend(
        f"modeled shape check failed: {name}"
        for name, ok in checks.items() if not ok
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("jit-cache gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
