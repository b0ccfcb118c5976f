"""Fast-mode benchmark smoke: fig5/fig6/fig8 run end-to-end, format-checked.

CI runs this (`python benchmarks/smoke.py`) on every push: each
model-backed figure is run at a small, seconds-fast scale
and its rendered block is matched against the expected format. A
failing regex means the *shape of the output* drifted — a renamed
column, a dropped row, a changed unit — which the numeric test suite
would not necessarily catch. Exit code 1 lists every drifted pattern.
"""

from __future__ import annotations

import re
import sys

def _fig6() -> str:
    from repro.bench import fig6

    return fig6.render_frontier(
        fig6.run_frontier(ranks=(1, 8, 64), steps=5)
    )


def _fig8() -> str:
    from repro.bench import fig8

    return fig8.render_frontier(fig8.run_frontier(ranks=(1, 8, 64)))


def _fig8_pipeline() -> str:
    from repro.bench import fig8

    return fig8.render_pipeline(
        fig8.run_pipeline(nranks=64, steps=3, local_cells=256)
    )


def _fig5_virtual() -> str:
    from repro.bench import fig5

    result = fig5.run_virtual(nranks=4, L=32, steps=2)
    checks = fig5.virtual_shape_checks(result)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise AssertionError(f"fig5 virtual shape checks failed: {failed}")
    return fig5.render_virtual(result)


#: (name, producer, format patterns the rendered block must match)
CHECKS = [
    (
        "fig6",
        _fig6,
        [
            r"Figure 6: weak scaling, per-process wall-clock \(modeled\)",
            r"MPI procs \(GPUs\)\s+nodes\s+min \(s\)\s+mean \(s\)\s+max \(s\)\s+variability",
            r"(?m)^1\s+1\s+\d+\.\d+\s+\d+\.\d+\s+\d+\.\d+\s+\d+\.\d%",
            r"(?m)^64\s+8\s+",
        ],
    ),
    (
        "fig8",
        _fig8,
        [
            r"Figure 8: parallel I/O weak scaling \(modeled, 1 output step\)",
            r"MPI procs\s+nodes\s+data \(TB\)\s+write \(s\)\s+bandwidth \(GB/s\)",
            r"(?m)^64\s+8\s+\d+\.\d+\s+\d+\.\d+\s+\d+\.\d+",
            r"max bandwidth \d+ GB/s \(paper: \d+ GB/s",
        ],
    ),
    (
        "fig8.pipeline",
        _fig8_pipeline,
        [
            r"I/O pipeline, 64 ranks x 3 output steps, async drain \(overlapped\): "
            r"\d+\.\d s scheduled vs \d+\.\d s serial \(\d+\.\d{3}x\)",
        ],
    ),
    (
        "fig5.virtual",
        _fig5_virtual,
        [
            r"Figure 5 \(virtual\): modeled timeline, 4 ranks "
            r"\(8 kernels, 8 halos, 2 writes, \d+\.\d{3} modeled s\)",
            r"modeled clock: \d+\.\d+ s \(\d+ spans\)",
            r"gcd0/kernel\s+\|",
            r"lustre-oss/write\s+\|",
        ],
    ),
]


def run_smoke(out=sys.stdout) -> int:
    bar = "=" * 72
    failures: list[str] = []
    for name, producer, patterns in CHECKS:
        try:
            block = producer()
        except Exception as exc:  # a crash is format drift too
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        print(f"{bar}\n{name}\n{bar}\n{block}\n", file=out)
        for pattern in patterns:
            if not re.search(pattern, block):
                failures.append(f"{name}: output does not match /{pattern}/")
    if failures:
        print("benchmark smoke FAILED (format drift):", file=out)
        for failure in failures:
            print(f"  - {failure}", file=out)
        return 1
    print(f"benchmark smoke OK ({len(CHECKS)} blocks format-checked)", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(run_smoke())
