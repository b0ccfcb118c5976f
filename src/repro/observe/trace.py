"""The cross-layer span tracer.

One :class:`Tracer` collects timeline events from every layer of a run
— GPU kernel launches, JIT compiles, H2D/D2H copies, MPI point-to-point
and collective calls, ADIOS step I/O, and solver/workflow stages — into
a single event stream that the exporters in :mod:`repro.observe.export`
turn into a Perfetto-loadable Chrome trace, a metrics JSON, or an ASCII
timeline.

Clock domains
-------------

The repo keeps two notions of time (see :mod:`repro.util.timers`): real
**wall** time, and **sim** time — the modeled Frontier clock that the
GPU/network/filesystem performance models advance. A span records which
domain its timestamps live in, and a *lane* (one ``(process, thread)``
row of the timeline) may only ever carry one domain; mixing raises
:class:`~repro.util.errors.ObserveError`. This is the tracing-level
version of the ``WallTimer``/``SimClock`` type separation: a modeled
kernel duration can never be laid onto a measured I/O lane.

Lanes
-----

``process`` groups related lanes (``"rank0"`` for a rank's host-side
work, ``"gcd0"`` for a simulated device), ``thread`` names the row
within it (``"core"``, ``"mpi"``, ``"adios"``, ``"kernel"``, ``"copy"``,
``"jit"``). The SPMD executor runs ranks as threads of one process, so
a single shared tracer (guarded by a lock) sees every rank.

Zero overhead when disabled
---------------------------

Nothing is traced unless a tracer has been installed with
:func:`activate` (or the :func:`session` context manager). Every
instrumentation site starts with ``tracer = active()`` — a module
attribute read — and does no further work when it returns ``None``, so
existing benchmarks are unaffected.

Sinks and bounded memory
------------------------

By default every span is retained in :attr:`Tracer.spans` until export
("accumulate then dump"). A tracer may instead carry **sinks** —
objects implementing the :class:`TraceSink` protocol — which observe
every span as it closes. With ``retain=False`` the in-memory list is
skipped entirely and the sinks are the only consumers: this is the
bounded-memory streaming mode of :mod:`repro.observe.stream`, where a
million-rank modeled run exports rotating shard files without ever
materializing its span list.

Columnar batches
----------------

Modeled runs emit spans by the tens of thousands per epoch, all of a
few fixed shapes. A :class:`SpanBatch` stores such a batch as NumPy
columns (kind, id, start, seconds, tag) next to a small tuple of
:class:`SpanKind` constants, and :meth:`Tracer.add_spans` validates it
with array operations. Sinks that implement ``record_many`` consume the
columns directly; everything else gets :meth:`SpanBatch.records`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.observe.metrics import MetricsRegistry
from repro.util.errors import ObserveError

#: measured time (``time.perf_counter`` relative to the tracer's epoch)
WALL = "wall"
#: modeled time (a :class:`~repro.util.timers.SimClock` timestamp)
SIM = "sim"

_CLOCKS = (WALL, SIM)

#: span categories used by the built-in instrumentation
CATEGORIES = ("core", "gpu", "mpi", "adios")


@dataclass(frozen=True)
class SpanRecord:
    """One timeline entry: a duration span or an instant event."""

    name: str
    cat: str
    clock: str  # WALL | SIM
    process: str
    thread: str
    start: float  # seconds within the clock domain
    seconds: float
    args: tuple = ()  # frozen (key, value) pairs
    ph: str = "X"  # Chrome phase: "X" complete span, "i" instant

    @property
    def end(self) -> float:
        return self.start + self.seconds

    @property
    def lane(self) -> tuple[str, str]:
        return (self.process, self.thread)

    def arg(self, key: str, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default

    def args_dict(self) -> dict:
        return dict(self.args)


@dataclass(frozen=True)
class BatchColumn:
    """Marks a :class:`SpanKind` arg whose value is a per-span column."""

    name: str  # the SpanBatch column attribute: "id" or "tag"


#: a :class:`SpanKind` arg value read from the batch's ``id`` column
ID = BatchColumn("id")
#: a :class:`SpanKind` arg value read from the batch's ``tag`` column
TAG = BatchColumn("tag")


@dataclass(frozen=True)
class SpanKind:
    """The fields shared by every span of one kind in a :class:`SpanBatch`.

    ``process`` is the whole process name, or with ``process_id`` the
    prefix each span's id is appended to (``"gcd"`` -> ``"gcd17"``).
    ``args`` are ``(key, value)`` pairs in record order; a value of
    :data:`ID` or :data:`TAG` is taken from that span's column.
    """

    name: str
    cat: str
    clock: str  # WALL | SIM
    process: str
    thread: str
    process_id: bool = False
    args: tuple = ()

    def record(
        self, id: int, start: float, seconds: float, tag: int
    ) -> SpanRecord:
        """The :class:`SpanRecord` of one span of this kind."""
        columns = {"id": id, "tag": tag}
        return SpanRecord(
            name=self.name,
            cat=self.cat,
            clock=self.clock,
            process=f"{self.process}{id}" if self.process_id else self.process,
            thread=self.thread,
            start=start,
            seconds=seconds,
            args=tuple(
                (
                    key,
                    columns[value.name]
                    if isinstance(value, BatchColumn)
                    else value,
                )
                for key, value in self.args
            ),
        )


class SpanBatch:
    """Complete (``ph="X"``) spans of a few kinds, stored as columns.

    Row ``i`` is one span of kind ``kinds[kind[i]]`` with integer
    ``id[i]`` (the process suffix and/or an arg), timestamps
    ``start[i]``/``seconds[i]``, and integer ``tag[i]`` (an arg). Rows
    are in emission order. :meth:`records` is the reference meaning of
    a batch; streaming sinks serialize the columns without it.
    """

    def __init__(self, kinds, *, kind, id, start, seconds, tag) -> None:
        self.kinds: tuple[SpanKind, ...] = tuple(kinds)
        self.kind = np.asarray(kind)
        self.id = np.asarray(id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.seconds = np.asarray(seconds, dtype=np.float64)
        self.tag = np.asarray(tag, dtype=np.int64)
        n = self.kind.size
        columns = (self.kind, self.id, self.start, self.seconds, self.tag)
        if any(column.shape != (n,) for column in columns):
            raise ObserveError(
                "span batch columns must be 1-D and of equal length: "
                f"{[column.shape for column in columns]}"
            )
        if n and (self.kind.min() < 0 or self.kind.max() >= len(self.kinds)):
            raise ObserveError(
                f"span batch kind index outside 0..{len(self.kinds) - 1}"
            )

    def __len__(self) -> int:
        return self.kind.size

    def records(self, lo: int = 0, hi: int | None = None) -> list[SpanRecord]:
        """Rows ``[lo, hi)`` as :class:`SpanRecord` entries."""
        rows = slice(lo, hi)
        kinds = self.kinds
        return [
            kinds[k].record(i, start, seconds, tag)
            for k, i, start, seconds, tag in zip(
                self.kind[rows].tolist(),
                self.id[rows].tolist(),
                self.start[rows].tolist(),
                self.seconds[rows].tolist(),
                self.tag[rows].tolist(),
            )
        ]

    def lanes(self):
        """Yield ``(lane, kind)`` once per distinct lane of each kind used."""
        for k in np.unique(self.kind).tolist():
            kind = self.kinds[k]
            if kind.process_id:
                ids = np.unique(self.id[self.kind == k]).tolist()
                for i in ids:
                    yield (f"{kind.process}{i}", kind.thread), kind
            else:
                yield (kind.process, kind.thread), kind


class TraceSink:
    """Protocol for streaming span consumers attached to a tracer.

    A sink sees every span at the moment it is recorded (under the
    tracer's lock, so implementations must not re-enter the tracer).
    The base class is a no-op; concrete sinks live in
    :mod:`repro.observe.stream` (sharded Perfetto writer, flight
    recorder, metrics aggregator).
    """

    def record(self, span: SpanRecord) -> None:  # pragma: no cover
        """Observe one closed span."""

    def flush(self) -> None:
        """Push any buffered state out (shard files, snapshots)."""

    def close(self) -> None:
        """Flush and finalize (write manifests, release files)."""


class Tracer:
    """Thread-safe collector of :class:`SpanRecord` entries + metrics."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        *,
        sinks: list[TraceSink] | None = None,
        retain: bool = True,
    ) -> None:
        self._lock = threading.Lock()
        self.spans: list[SpanRecord] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sinks: list[TraceSink] = list(sinks) if sinks else []
        #: keep spans in memory (False = streaming mode, sinks only)
        self.retain = retain
        if not retain and not self.sinks:
            raise ObserveError(
                "a tracer with retain=False needs at least one sink; "
                "otherwise every span would be dropped"
            )
        #: lane -> clock domain, for the never-mix invariant
        self._lane_clocks: dict[tuple[str, str], str] = {}
        self._wall_epoch = time.perf_counter()

    # -- time --------------------------------------------------------------
    def wall_now(self) -> float:
        """Wall seconds since this tracer was created (span timebase)."""
        return time.perf_counter() - self._wall_epoch

    # -- recording ---------------------------------------------------------
    def add_span(
        self,
        name: str,
        *,
        cat: str,
        clock: str,
        process: str,
        thread: str,
        start: float,
        seconds: float,
        args: dict | None = None,
        ph: str = "X",
    ) -> SpanRecord:
        """Record a finished span with explicit timestamps.

        Used directly by the performance-model layers, whose events
        carry modeled (:data:`SIM`) timestamps; wall-clock sites usually
        use the :meth:`span` context manager instead.
        """
        if clock not in _CLOCKS:
            raise ObserveError(f"unknown clock domain {clock!r}; use {_CLOCKS}")
        if seconds < 0:
            raise ObserveError(f"span {name!r} has negative duration {seconds}")
        record = SpanRecord(
            name=name,
            cat=cat,
            clock=clock,
            process=process,
            thread=thread,
            start=start,
            seconds=seconds,
            args=tuple(sorted((args or {}).items())),
            ph=ph,
        )
        with self._lock:
            known = self._lane_clocks.setdefault(record.lane, clock)
            if known != clock:
                raise ObserveError(
                    f"lane {record.lane} carries {known!r}-clock spans; "
                    f"refusing to add {clock!r}-clock span {name!r} "
                    "(one lane, one clock domain)"
                )
            if self.retain:
                self.spans.append(record)
            for sink in self.sinks:
                sink.record(record)
        return record

    def add_spans(self, batch: SpanBatch) -> int:
        """Record a columnar :class:`SpanBatch` of spans.

        The bulk path of the epoch engine (:func:`repro.sched.vector.
        emit_epoch_spans`). Durations are checked as one array, lane
        clocks once per distinct lane, and every lane of the batch is
        checked before any is registered, so a rejected batch leaves
        the tracer unchanged. Sinks with ``record_many`` take the batch
        itself; the retained list and other sinks get its records.
        """
        if not len(batch):
            return 0
        for kind in batch.kinds:
            if kind.clock not in _CLOCKS:
                raise ObserveError(
                    f"unknown clock domain {kind.clock!r}; use {_CLOCKS}"
                )
        negative = np.flatnonzero(batch.seconds < 0)
        if negative.size:
            row = int(negative[0])
            raise ObserveError(
                f"span {batch.kinds[batch.kind[row]].name!r} has negative "
                f"duration {float(batch.seconds[row])}"
            )
        lanes = list(batch.lanes())
        with self._lock:
            new_lanes: dict[tuple[str, str], str] = {}
            for lane, kind in lanes:
                known = self._lane_clocks.get(lane) or new_lanes.setdefault(
                    lane, kind.clock
                )
                if known != kind.clock:
                    raise ObserveError(
                        f"lane {lane} carries {known!r}-clock spans; "
                        f"refusing to add {kind.clock!r}-clock span "
                        f"{kind.name!r} (one lane, one clock domain)"
                    )
            self._lane_clocks.update(new_lanes)
            records = None
            if self.retain:
                records = batch.records()
                self.spans.extend(records)
            for sink in self.sinks:
                record_many = getattr(sink, "record_many", None)
                if record_many is not None:
                    record_many(batch)
                    continue
                if records is None:
                    records = batch.records()
                for record in records:
                    sink.record(record)
        return len(batch)

    def instant(
        self,
        name: str,
        *,
        cat: str,
        clock: str,
        process: str,
        thread: str,
        ts: float | None = None,
        args: dict | None = None,
    ) -> SpanRecord:
        """Record a zero-duration marker event."""
        if ts is None:
            if clock != WALL:
                raise ObserveError("sim-clock instants need an explicit ts")
            ts = self.wall_now()
        return self.add_span(
            name,
            cat=cat,
            clock=clock,
            process=process,
            thread=thread,
            start=ts,
            seconds=0.0,
            args=args,
            ph="i",
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str,
        process: str,
        thread: str,
        args: dict | None = None,
    ):
        """Measure a wall-clock span around a ``with`` block.

        The span is recorded even if the block raises, so failed stages
        still show up in the timeline.
        """
        start = self.wall_now()
        try:
            yield self
        finally:
            self.add_span(
                name,
                cat=cat,
                clock=WALL,
                process=process,
                thread=thread,
                start=start,
                seconds=self.wall_now() - start,
                args=args,
            )

    # -- sinks -------------------------------------------------------------
    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach a streaming sink; it sees every span recorded after."""
        with self._lock:
            self.sinks.append(sink)
        return sink

    def flush(self) -> None:
        """Flush every attached sink's buffered state."""
        with self._lock:
            sinks = list(self.sinks)
        for sink in sinks:
            sink.flush()

    def close(self) -> None:
        """Close every attached sink (writes shard manifests etc.)."""
        with self._lock:
            sinks = list(self.sinks)
        for sink in sinks:
            sink.close()

    # -- queries -----------------------------------------------------------
    def lanes(self) -> dict[tuple[str, str], list[SpanRecord]]:
        """Spans grouped by (process, thread), each sorted by start."""
        out: dict[tuple[str, str], list[SpanRecord]] = {}
        with self._lock:
            spans = list(self.spans)
        for record in spans:
            out.setdefault(record.lane, []).append(record)
        for records in out.values():
            records.sort(key=lambda r: (r.start, -r.seconds))
        return out

    def by_category(self) -> dict[str, list[SpanRecord]]:
        out: dict[str, list[SpanRecord]] = {}
        with self._lock:
            spans = list(self.spans)
        for record in spans:
            out.setdefault(record.cat, []).append(record)
        return out

    def select(self, *, cat: str | None = None, name: str | None = None):
        with self._lock:
            spans = list(self.spans)
        return [
            r for r in spans
            if (cat is None or r.cat == cat) and (name is None or r.name == name)
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)


# ---------------------------------------------------------------------------
# the global tracing switch
# ---------------------------------------------------------------------------

_active: Tracer | None = None
_activate_lock = threading.Lock()


def active() -> Tracer | None:
    """The installed tracer, or None when tracing is disabled."""
    return _active


def activate(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process-wide tracer."""
    global _active
    with _activate_lock:
        if _active is not None:
            raise ObserveError(
                "a tracer is already active; deactivate() it first"
            )
        _active = tracer if tracer is not None else Tracer()
        return _active


def deactivate() -> Tracer | None:
    """Remove the installed tracer and return it (None if none was)."""
    global _active
    with _activate_lock:
        tracer, _active = _active, None
        return tracer


@contextmanager
def session(tracer: Tracer | None = None):
    """``with session() as tracer:`` — activate for the block's duration."""
    installed = activate(tracer)
    try:
        yield installed
    finally:
        deactivate()
