"""Streaming-tracing overhead gate: traced / untraced smoke workflow.

Runs the same small solver :class:`repro.core.workflow.Workflow`
(L=48, 24 steps, output every 4) untraced and with every span streamed
to a :class:`repro.observe.stream.ShardedPerfettoWriter`, interleaved
best-of-3 so both paths see the same cache and clock conditions.
Exit 1 when the traced run takes more than :data:`OVERHEAD_LIMIT`
(1.10) times the untraced one. CI runs it in the ``observe-stream``
job::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

#: ceiling on traced / untraced wall time: streaming tracing costs <= 10%
OVERHEAD_LIMIT = 1.10


def measure_overhead() -> tuple[float, float]:
    """Best untraced and best traced wall seconds of the smoke workflow."""
    from repro.core.settings import GrayScottSettings
    from repro.core.workflow import Workflow
    from repro.observe import trace as observe
    from repro.observe.stream import ShardedPerfettoWriter
    from repro.observe.trace import Tracer

    with tempfile.TemporaryDirectory() as tmp:
        settings = GrayScottSettings(
            L=48, steps=24, plotgap=4, output=str(Path(tmp) / "bench.bp"),
        )
        # untimed warm-up: the first run in a process also pays for
        # imports and kernel lowering, which only the untraced side
        # would otherwise carry
        Workflow(settings).run()
        untraced_s = traced_s = float("inf")
        for i in range(3):
            t0 = time.perf_counter()
            Workflow(settings).run()
            untraced_s = min(untraced_s, time.perf_counter() - t0)

            t0 = time.perf_counter()
            stream = ShardedPerfettoWriter(Path(tmp) / f"trace{i}")
            with observe.session(Tracer(sinks=[stream], retain=False)) as tr:
                Workflow(settings).run()
                tr.close()
            traced_s = min(traced_s, time.perf_counter() - t0)
    return untraced_s, traced_s


def main() -> int:
    untraced_s, traced_s = measure_overhead()
    ratio = traced_s / untraced_s
    print(
        f"tracing overhead: untraced {untraced_s * 1e3:.1f} ms, streamed "
        f"{traced_s * 1e3:.1f} ms (ratio {ratio:.3f}, limit "
        f"{OVERHEAD_LIMIT:.2f})"
    )
    if ratio > OVERHEAD_LIMIT:
        print(
            f"FAIL: tracing overhead {ratio:.3f}x exceeds the "
            f"{OVERHEAD_LIMIT:.2f}x limit",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
