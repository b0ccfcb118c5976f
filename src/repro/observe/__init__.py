"""repro.observe — unified cross-layer tracing and metrics.

The instrumentation spine of the package: one :class:`Tracer` collects
spans from the GPU simulator, the MPI substrate, the ADIOS I/O layer,
and the solver/workflow drivers, keeping the two clock domains (wall
time vs. modeled :class:`~repro.util.timers.SimClock` time) on separate
lanes; a :class:`MetricsRegistry` accumulates counters, gauges, and
histograms alongside.

Typical use (also what ``grayscott run --trace-out`` does)::

    from repro import observe
    from repro.observe.export import write_chrome_trace, write_metrics_json

    with observe.session() as tracer:
        report = Workflow(settings).run()
    write_chrome_trace(tracer, "trace.json")     # load in ui.perfetto.dev
    write_metrics_json(tracer.metrics, "metrics.json")

Tracing is disabled unless a tracer is installed; every hook in the
runtime layers checks :func:`active` first, so a disabled run pays one
attribute read per hook site. See ``docs/OBSERVABILITY.md``.

For runs too large to buffer, :mod:`repro.observe.stream` replaces
"accumulate then dump" with a streaming sink attached to the tracer:
a sharded Perfetto-JSONL writer (:class:`ShardedPerfettoWriter`).
"""

from repro.observe.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observe.stream import (
    ShardedPerfettoWriter,
    merge_shards,
    write_merged,
)
from repro.observe.trace import (
    SIM,
    WALL,
    SpanRecord,
    Tracer,
    TraceSink,
    activate,
    active,
    deactivate,
    session,
)

__all__ = [
    "SIM",
    "WALL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ShardedPerfettoWriter",
    "SpanRecord",
    "TraceSink",
    "Tracer",
    "activate",
    "active",
    "deactivate",
    "merge_shards",
    "session",
    "write_merged",
]
