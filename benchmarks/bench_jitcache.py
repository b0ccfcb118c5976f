"""JIT warm-start benchmark CLI: the Fig. 7 cold/warm gap, closed.

Two halves, both written to the schema-stable ``BENCH_jitcache.json``:

- **measured** — the first launch of each compiled kernel (the
  Gray-Scott and Laplacian kernels in float64 and float32), as
  ``Kernel.execute`` in an empty trace memo and object table: cold
  against an empty :mod:`repro.gpu.jitcache` directory (trace, lower,
  ``cc``), warm against a populated one (trace, lower, load the
  object), each the best of several passes. Gated absolutely: warm p50
  must stay below :data:`WARM_COLD_LIMIT` (0.20) of the cold p50 —
  warm starts at least 5x faster — and every warm launch must store
  byte for byte what the cold one stored.
- **modeled** — the Figure 7 variant: per-GPU first-window bandwidth
  distributions with full JIT compilation vs. a compiled-kernel load,
  reproducing the paper's ~12.5x cold cost factor and showing the warm
  start closing it to ~1x. Gated by the variant's shape checks.

CI runs ``--quick`` on every push (the ``jit-cache`` job) and uploads
the JSON as an artifact. Exit 1 when the warm gate or a shape check
fails. A C compiler (``cc``) must be on PATH.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCHEMA = "repro.bench.jitcache/2"

#: ceiling on the warm/cold first-launch p50 ratio: warm starts from
#: the JIT disk cache must answer first launches >= 5x faster
WARM_COLD_LIMIT = 0.20


def measure_warm_start(quick: bool) -> dict:
    """Cold vs warm first launch of each compiled kernel."""
    from repro.core.params import GrayScottParams
    from repro.core.stencil import (
        kernel_args,
        make_gray_scott_kernel,
        make_laplacian_kernel,
    )
    from repro.gpu import jitcache
    from repro.gpu.jit import trace_memo
    from repro.gpu.kernel import LaunchConfig

    edge = 16 if quick else 32
    shape = (edge,) * 3
    config = LaunchConfig.for_domain(shape, (4, 4, 4))
    rng = np.random.default_rng(7)
    fields = [np.asfortranarray(rng.random(shape)) for _ in range(2)]

    def launches():
        """(kernel, args, output arrays) per compiled kernel, fresh outputs."""
        out = []
        for dtype in (np.float64, np.float32):
            u, v = (f.astype(dtype, order="F") for f in fields)
            un, vn = np.zeros_like(u), np.zeros_like(v)
            out.append((make_gray_scott_kernel(),
                        kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=0),
                        (un, vn)))
            lap = np.zeros_like(u)
            out.append((make_laplacian_kernel(), (u, lap, shape, 0.2, 1.0), (lap,)))
        return out

    def first_launches(directory: Path) -> tuple[list[float], list[bytes]]:
        # a new process: no traces, no loaded objects
        jitcache._NATIVE.clear()
        trace_memo().clear()
        jitcache.configure(directory)
        times, stored = [], []
        try:
            for kernel, args, outputs in launches():
                t0 = time.perf_counter()
                kernel.execute(config, args)
                times.append(time.perf_counter() - t0)
                stored.append(b"".join(a.tobytes() for a in outputs))
        finally:
            jitcache.deconfigure()
        return times, stored

    repeats = 3 if quick else 5
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cold_times = warm_times = None
        for n in range(repeats):
            # cold: an empty directory, so every kernel compiles
            times, cold_stored = first_launches(root / f"cold{n}")
            cold_times = np.minimum(cold_times, times) if n else np.array(times)
        for n in range(repeats):
            # warm: a copy of a populated directory (a new path, so the
            # loader cannot answer from an object it already mapped)
            shutil.copytree(root / "cold0", root / f"warm{n}")
            times, warm_stored = first_launches(root / f"warm{n}")
            warm_times = np.minimum(warm_times, times) if n else np.array(times)
        identical = warm_stored == cold_stored

    cold_p50 = float(np.percentile(cold_times, 50))
    warm_p50 = float(np.percentile(warm_times, 50))
    return {
        "shape_classes": len(cold_times),
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

    # measured: cold-vs-warm first launch through the real cache
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
        failures.append("warm launches do not store what cold launches store")
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
