"""Streaming telemetry: bounded-memory trace export and live metrics.

The PR-1 tracer accumulates every span in memory and dumps one
monolithic Chrome JSON at exit — fine at 4,096 modeled ranks,
impossible at the 262,144-rank ROADMAP target. This module replaces
"accumulate then dump" with incremental sinks attached to a
:class:`~repro.observe.trace.Tracer` (``retain=False`` keeps the span
list empty):

- :class:`ShardedPerfettoWriter` — spans flush to rotating JSONL shard
  files as they close; a ``manifest.json`` indexes the shards; and
  :func:`merge_shards` reassembles a monolithic Chrome trace
  **byte-identical** to what :func:`repro.observe.export.
  write_chrome_trace` would have produced from a retained tracer.
- :class:`LiveMetricsPublisher` — JSON records published over the
  :mod:`repro.adios.sst` streaming engine, so an attached
  :class:`~repro.adios.sst.SSTReader` watches a run in flight
  (:func:`read_live_snapshot`).

Shard format (``repro.observe.shards/1``)
-----------------------------------------

Each shard is a JSONL file: one span per line, a JSON object with the
full :class:`~repro.observe.trace.SpanRecord` payload (``name``,
``cat``, ``clock``, ``process``, ``thread``, ``start``, ``seconds``,
``ph``, ``args``). Lines appear in the order the spans were recorded,
so replaying every shard of a manifest in order reconstructs the exact
per-lane span sequences of the original tracer — which is what makes
the merged export byte-identical to the monolithic one. A directory
target gets ``manifest.json``; a ``*.jsonl`` target is a single
unrotated shard with no manifest.

A :class:`~repro.observe.trace.SpanBatch` is serialized straight from
its columns: each span kind becomes one ``%``-template whose constant
parts are the ``json.dumps`` text of :func:`span_to_record`, so a batch
writes exactly the lines per-span recording would.

Process-parallel runs (:mod:`repro.par`) extend this: each worker
writes its *own* shard files into the parent's stream directory and
ships back only the manifest entries; the parent adopts them with
:meth:`ShardedPerfettoWriter.adopt_shards` instead of replaying span
lists — the million-rank trace never materializes in any one process.
"""

from __future__ import annotations

import json
import math
from collections import deque
from json.encoder import encode_basestring_ascii
from pathlib import Path
from threading import Lock

import numpy as np

from repro.observe.trace import (
    ID,
    TAG,
    BatchColumn,
    SpanBatch,
    SpanKind,
    SpanRecord,
    Tracer,
    TraceSink,
)
from repro.util.errors import ObserveError

#: schema identifier written to shard manifests
SHARD_SCHEMA = "repro.observe.shards/1"


#: the index file of a shard directory
MANIFEST_NAME = "manifest.json"

#: span fields serialized to each JSONL line, in order
_SPAN_FIELDS = (
    "name", "cat", "clock", "process", "thread", "start", "seconds", "ph",
)


# ---------------------------------------------------------------------------
# span <-> JSONL record
# ---------------------------------------------------------------------------


def span_to_record(span: SpanRecord) -> dict:
    """The JSONL payload of one span (args flattened to a dict)."""
    record = {field: getattr(span, field) for field in _SPAN_FIELDS}
    record["args"] = span.args_dict()
    return record


#: ``json.dumps(..., separators=(",", ":"))``, for values without a fast path
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_LINE = "{%s}" % ",".join(f'"{field}":%s' for field in (*_SPAN_FIELDS, "args"))


def _json(value) -> str:
    """``value`` as compact JSON: exact str, int and finite float directly."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    return _ENCODER.encode(value)


def _span_line(span: SpanRecord) -> str:
    """One JSONL shard line: the compact JSON of :func:`span_to_record`,
    formatted field by field (twice as fast as ``json.dumps``)."""
    args = span.args_dict()
    if all(type(key) is str for key in args):
        args = "{%s}" % ",".join(f"{_json(k)}:{_json(v)}" for k, v in args.items())
    else:
        args = _ENCODER.encode(args)
    return _LINE % (*[_json(getattr(span, f)) for f in _SPAN_FIELDS], args)


def _template_json(value) -> str:
    """``value`` as compact JSON, with ``%`` escaped for a %-template."""
    return json.dumps(value, separators=(",", ":")).replace("%", "%%")


def _kind_template(kind: SpanKind) -> tuple[str, tuple[str, ...]]:
    """The %-template of one span kind's JSONL line, and its column names.

    Walks :func:`span_to_record` of a span of the kind, with the
    column markers as its id and tag, in field order: constant fields
    become their JSON text, and each per-span field (``start``,
    ``seconds``, an id process suffix, an :data:`ID` or :data:`TAG` arg)
    becomes a ``%s`` filled from the named batch column. ``%s`` of a
    Python int or finite float is its JSON text.
    """
    parts = []
    columns: list[str] = []
    record = span_to_record(kind.record(ID, 0.0, 0.0, TAG))
    for key, value in record.items():
        if key in ("start", "seconds"):
            text = "%s"
            columns.append(key)
        elif key == "process" and kind.process_id:
            # digits and "-" need no escaping: the id follows the prefix
            text = _template_json(kind.process)[:-1] + '%s"'
            columns.append("id")
        elif key == "args":
            fields = []
            for arg, arg_value in value.items():
                if isinstance(arg_value, BatchColumn):
                    fields.append(f"{_template_json(arg)}:%s")
                    columns.append(arg_value.name)
                else:
                    fields.append(
                        f"{_template_json(arg)}:{_template_json(arg_value)}"
                    )
            text = "{" + ",".join(fields) + "}"
        else:
            text = _template_json(value)
        parts.append(f"{_template_json(key)}:{text}")
    return "{" + ",".join(parts) + "}", tuple(columns)


def _json_values(column: np.ndarray) -> list[str]:
    """The JSON text of each value of an int64 or float64 column.

    Each distinct value is formatted once. Values are told apart by
    their bits, so ``-0.0`` and ``0.0`` (which compare equal) keep their
    own texts; every NaN prints ``NaN`` whatever its bits.
    """
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    # json spells nan / inf as NaN / Infinity, where repr would not
    texts = [
        repr(v) if math.isfinite(v) else json.dumps(v)
        for v in distinct.view(column.dtype).tolist()
    ]
    return np.array(texts, dtype=object)[inverse].tolist()


def _batch_lines(batch: SpanBatch, templates, lo: int, hi: int) -> list[str]:
    """The JSONL lines of batch rows ``[lo, hi)``, in row order.

    ``templates`` holds :func:`_kind_template` of each of the batch's
    kinds; rows of one kind are formatted together and scattered back
    into emission order.
    """
    kinds = batch.kind[lo:hi]
    lines = np.empty(kinds.size, dtype=object)
    for k, (template, columns) in enumerate(templates):
        rows = np.flatnonzero(kinds == k)
        if not rows.size:
            continue
        values = [
            _json_values(getattr(batch, column)[lo:hi][rows])
            for column in columns
        ]
        lines[rows] = [template % row for row in zip(*values)]
    return lines.tolist()


def record_to_span_kwargs(record: dict) -> dict:
    """The :meth:`Tracer.add_span` keyword arguments of one JSONL record."""
    if not isinstance(record, dict):
        raise ObserveError(f"shard record is not an object: {record!r}")
    missing = [f for f in _SPAN_FIELDS if f not in record]
    if missing:
        raise ObserveError(f"shard record missing fields {missing}")
    kwargs = {field: record[field] for field in _SPAN_FIELDS}
    # only a missing key means "no args"; the writer always emits an
    # object, so any other value is the producer's to answer for
    kwargs["args"] = record.get("args", {})
    return kwargs


# ---------------------------------------------------------------------------
# the sharded / streaming Perfetto-JSONL writer
# ---------------------------------------------------------------------------


class ShardedPerfettoWriter(TraceSink):
    """Flush spans to rotating JSONL shards as they close.

    ``target`` is either a directory (sharded mode: ``<prefix>NNNNN.
    jsonl`` files plus ``manifest.json``) or a ``*.jsonl`` path (a
    single unrotated shard, no manifest). Spans buffer in memory up to
    ``flush_threshold`` and are then appended to the current shard;
    a shard rotates once it holds ``shard_spans`` spans. Peak
    tracer-resident span count is therefore bounded by the flush
    threshold regardless of run size (:attr:`max_buffered` records the
    observed high-water mark).
    """

    def __init__(
        self,
        target,
        *,
        flush_threshold: int = 4096,
        shard_spans: int = 131072,
        prefix: str = "trace-",
        manifest: bool | None = None,
    ):
        if flush_threshold < 1:
            raise ObserveError(
                f"flush_threshold must be >= 1, got {flush_threshold}"
            )
        if shard_spans < 1:
            raise ObserveError(f"shard_spans must be >= 1, got {shard_spans}")
        target = Path(target)
        self.single_file = target.suffix == ".jsonl"
        if self.single_file:
            self.dir = target.parent if str(target.parent) else Path(".")
            self._single_path = target
        else:
            self.dir = target
            self._single_path = None
        self.dir.mkdir(parents=True, exist_ok=True)
        self.flush_threshold = int(flush_threshold)
        self.shard_spans = int(shard_spans)
        self.prefix = prefix
        self.write_manifest = (
            manifest if manifest is not None else not self.single_file
        )
        if self.single_file and self.write_manifest:
            raise ObserveError(
                "a single-file .jsonl stream carries no manifest"
            )
        self.total_spans = 0
        self.max_buffered = 0
        self.closed = False
        self._lock = Lock()
        # spans to write: JSONL lines of batches, records of single spans
        # (serialized at flush, off the traced code's hot path)
        self._buffer: list[str | SpanRecord] = []
        self._buffered_records = False  # whether _buffer holds a SpanRecord
        self._entries: list[dict] = []
        self._shard_index = 0
        self._shard_count = 0
        self._handle = None
        # truncate a pre-existing single-file target so repeated runs
        # do not append to stale spans
        if self.single_file:
            self._single_path.write_text("")

    # -- TraceSink ---------------------------------------------------------
    def record(self, span: SpanRecord) -> None:
        with self._lock:
            if self.closed:
                raise ObserveError(
                    f"span recorded on closed stream {self.target}"
                )
            self._buffer.append(span)
            self._buffered_records = True
            if len(self._buffer) > self.max_buffered:
                self.max_buffered = len(self._buffer)
            if len(self._buffer) >= self.flush_threshold:
                self._flush_buffer()

    def record_many(self, batch: SpanBatch) -> None:
        """Bulk :meth:`record` of a :class:`~repro.observe.trace.SpanBatch`.

        Fed by :meth:`Tracer.add_spans` (the epoch engine emits each
        epoch as one batch). Lines are formatted from the columns in
        slices that fill the buffer to the flush threshold, so shard
        rotation, the buffered high-water mark and every written byte
        match per-span recording, and at most one flush's worth of
        lines is alive at a time.
        """
        templates = [_kind_template(kind) for kind in batch.kinds]
        with self._lock:
            if self.closed:
                raise ObserveError(
                    f"span recorded on closed stream {self.target}"
                )
            threshold = self.flush_threshold
            pos, n = 0, len(batch)
            while pos < n:
                take = min(threshold - len(self._buffer), n - pos)
                self._buffer.extend(
                    _batch_lines(batch, templates, pos, pos + take)
                )
                pos += take
                if len(self._buffer) > self.max_buffered:
                    self.max_buffered = len(self._buffer)
                if len(self._buffer) >= threshold:
                    self._flush_buffer()

    def flush(self) -> None:
        with self._lock:
            self._flush_buffer()

    def close(self) -> None:
        """Flush, seal the open shard, and write the manifest."""
        with self._lock:
            if self.closed:
                return
            self._finish_shard()
            if self.write_manifest:
                self._write_manifest()
            self.closed = True

    # -- worker / merge hooks ----------------------------------------------
    def finish(self) -> list[dict]:
        """Seal the stream without a manifest; returns the shard entries.

        This is the worker half of the process-parallel protocol: a
        pool worker finishes its private sink and ships the (file,
        span-count) entries back for the parent to adopt.
        """
        with self._lock:
            self._finish_shard()
            self.closed = True
            return list(self._entries)

    def adopt_shards(self, entries: list[dict]) -> None:
        """Fold a worker's shard entries into this stream's manifest.

        The worker wrote its shard files directly into this stream's
        directory (under a unique prefix); adoption just seals the
        parent's open shard and appends the entries in order, so the
        merged replay order equals the order span lists would have
        merged in.
        """
        with self._lock:
            if self.closed:
                raise ObserveError("cannot adopt shards on a closed stream")
            if self.single_file:
                raise ObserveError(
                    "a single-file .jsonl stream cannot adopt worker shards"
                )
            self._finish_shard()
            for entry in entries:
                self._entries.append(
                    {"file": entry["file"], "spans": int(entry["spans"])}
                )
                self.total_spans += int(entry["spans"])
            # the next parent span starts a fresh shard *after* the
            # adopted ones, preserving global replay order
            self._shard_index = max(self._shard_index, len(self._entries))

    # -- internals ---------------------------------------------------------
    @property
    def target(self) -> Path:
        return self._single_path if self.single_file else self.dir

    def _shard_path(self) -> Path:
        if self.single_file:
            return self._single_path
        return self.dir / f"{self.prefix}{self._shard_index:05d}.jsonl"

    def _flush_buffer(self) -> None:
        if not self._buffer:
            return
        if self._handle is None:
            self._handle = open(self._shard_path(), "a")
        lines = self._buffer
        if self._buffered_records:
            lines = [x if isinstance(x, str) else _span_line(x) for x in lines]
            self._buffered_records = False
        self._handle.write("\n".join(lines) + "\n")
        self._handle.flush()
        self._shard_count += len(self._buffer)
        self.total_spans += len(self._buffer)
        self._buffer.clear()
        if not self.single_file and self._shard_count >= self.shard_spans:
            self._finish_shard()

    def _finish_shard(self) -> None:
        self._flush_buffer()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._shard_count and not self.single_file:
            self._entries.append(
                {"file": self._shard_path().name, "spans": self._shard_count}
            )
            self._shard_index += 1
            self._shard_count = 0

    def _write_manifest(self) -> None:
        manifest = {
            "schema": SHARD_SCHEMA,
            "spans": self.total_spans,
            "shards": self._entries,
        }
        (self.dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=1) + "\n"
        )

    def __enter__(self) -> "ShardedPerfettoWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def stream_sink(tracer: Tracer | None) -> ShardedPerfettoWriter | None:
    """The tracer's directory-mode shard sink, if it carries one.

    Single-file ``.jsonl`` sinks are excluded: worker processes cannot
    append to one file concurrently, so the parallel paths fall back to
    span-list shipping for them (the parent sink still streams).
    """
    if tracer is None:
        return None
    for sink in tracer.sinks:
        if isinstance(sink, ShardedPerfettoWriter) and not sink.single_file:
            return sink
    return None


def worker_shard_spec(sink: ShardedPerfettoWriter, tag: str) -> dict:
    """The picklable recipe a pool worker uses to build its own sink."""
    return {
        "dir": str(sink.dir),
        "prefix": f"{sink.prefix}{tag}-",
        "flush_threshold": sink.flush_threshold,
        "shard_spans": sink.shard_spans,
    }


def open_worker_sink(spec: dict) -> ShardedPerfettoWriter:
    """Build the worker-side sink named by :func:`worker_shard_spec`."""
    return ShardedPerfettoWriter(
        spec["dir"],
        flush_threshold=spec["flush_threshold"],
        shard_spans=spec["shard_spans"],
        prefix=spec["prefix"],
        manifest=False,
    )


# ---------------------------------------------------------------------------
# reading shards back
# ---------------------------------------------------------------------------


def load_manifest(path) -> dict:
    """Load and schema-check a shard manifest."""
    target = Path(path)
    if target.is_dir():
        target = target / MANIFEST_NAME
    if not target.exists():
        raise ObserveError(f"shard manifest not found: {target}")
    try:
        manifest = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise ObserveError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != SHARD_SCHEMA:
        raise ObserveError(
            f"{target} is not a {SHARD_SCHEMA} manifest "
            f"(schema: {manifest.get('schema') if isinstance(manifest, dict) else None!r})"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list):
        raise ObserveError(f"manifest {target} has no 'shards' list")
    manifest["_dir"] = str(target.parent)
    return manifest


def is_shard_source(path) -> bool:
    """True if ``path`` names streamed shards rather than a Chrome JSON."""
    target = Path(path)
    return (
        target.is_dir()
        or target.suffix == ".jsonl"
        or target.name == MANIFEST_NAME
    )


def _iter_shard_file(path: Path):
    if not path.exists():
        raise ObserveError(f"shard file not found: {path}")
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObserveError(
                    f"{path}:{lineno} is not valid JSON: {exc}"
                ) from exc
            yield record_to_span_kwargs(record)


def iter_span_records(source):
    """Yield ``add_span`` kwargs from a shard dir / manifest / .jsonl file.

    Records stream in manifest order, one shard at a time — reading a
    million-span trace never holds more than one line in memory.
    """
    target = Path(source)
    if target.suffix == ".jsonl":
        yield from _iter_shard_file(target)
        return
    manifest = load_manifest(target)
    base = Path(manifest["_dir"])
    for entry in manifest["shards"]:
        yield from _iter_shard_file(base / entry["file"])


def rebuild_tracer(source) -> Tracer:
    """Replay streamed shards into a fresh retained tracer."""
    tracer = Tracer()
    for kwargs in iter_span_records(source):
        tracer.add_span(**kwargs)
    return tracer


def merge_shards(source) -> dict:
    """Reassemble streamed shards into one monolithic Chrome trace.

    The result is byte-identical (via :func:`write_merged`) to what the
    monolithic exporter would have written from the same run's retained
    tracer: shards replay in manifest order, reconstructing the exact
    per-lane span sequences, and the export path is shared.
    """
    from repro.observe.export import to_chrome_trace

    return to_chrome_trace(rebuild_tracer(source))


def write_merged(source, out) -> Path:
    """Merge shards and write the Chrome trace JSON; returns the path."""
    from repro.observe.export import write_chrome_json

    return write_chrome_json(merge_shards(source), out)


#: stop a streaming validation after this many problems
_MAX_STREAM_PROBLEMS = 50


def validate_shard_stream(source) -> list[str]:
    """Schema-check streamed shards without materializing the trace.

    What :func:`repro.observe.export.validate_chrome_trace` runs on
    every shard source, in bounded memory: every line must decode to a
    full span record with a string ``name``, an ``X`` or ``i`` phase and
    an object ``args``; durations must be nonnegative; clock domains
    must be known and never mixed within a lane; and the shard span
    counts must add up to the manifest's total. Per-lane timestamp
    monotonicity needs no separate check here — the merged exporter
    sorts each lane by start time, so any stream with valid timestamps
    merges to a monotonic trace.
    """
    from repro.observe.trace import _CLOCKS

    target = Path(source)
    problems: list[str] = []
    expected = None
    if target.suffix != ".jsonl":
        try:
            expected = int(load_manifest(target).get("spans", 0))
        except ObserveError as exc:
            return [str(exc)]
    lane_clocks: dict[tuple[str, str], str] = {}
    count = 0
    truncated = False
    try:
        for kwargs in iter_span_records(target):
            count += 1
            if not isinstance(kwargs["name"], str):
                problems.append(f"span {count} missing string 'name'")
            if kwargs["ph"] not in ("X", "i"):
                problems.append(
                    f"span {count} ({kwargs['name']!r}) has unsupported "
                    f"phase {kwargs['ph']!r}"
                )
            if not isinstance(kwargs["args"], dict):
                problems.append(
                    f"span {count} ({kwargs['name']!r}) 'args' is not an object"
                )
            clock = kwargs["clock"]
            if clock not in _CLOCKS:
                problems.append(
                    f"span {count} ({kwargs['name']!r}) has unknown "
                    f"clock {clock!r}"
                )
            if not isinstance(kwargs["start"], (int, float)):
                problems.append(f"span {count} missing numeric 'start'")
            seconds = kwargs["seconds"]
            if kwargs["ph"] == "X" and (
                not isinstance(seconds, (int, float)) or seconds < 0
            ):
                problems.append(
                    f"span {count} ({kwargs['name']!r}) missing "
                    "nonnegative 'seconds'"
                )
            lane = (kwargs["process"], kwargs["thread"])
            if not all(isinstance(part, str) for part in lane):
                problems.append(
                    f"span {count} ({kwargs['name']!r}) has a non-string "
                    f"process or thread {lane!r}"
                )
            elif (known := lane_clocks.setdefault(lane, clock)) != clock:
                problems.append(
                    f"lane {lane} mixes clock domains "
                    f"({known!r} and {clock!r})"
                )
            if len(problems) >= _MAX_STREAM_PROBLEMS:
                problems.append("... (validation truncated)")
                truncated = True
                break
    except ObserveError as exc:
        problems.append(str(exc))
        truncated = True
    if expected is not None and not truncated and count != expected:
        problems.append(
            f"manifest declares {expected} spans but shards hold {count}"
        )
    return problems


def tail_spans(source, n: int = 20) -> list[dict]:
    """The last ``n`` span records of a stream (for ``observe tail``)."""
    window: deque[dict] = deque(maxlen=max(1, int(n)))
    for kwargs in iter_span_records(source):
        window.append(kwargs)
    return list(window)


# ---------------------------------------------------------------------------
# live metrics
# ---------------------------------------------------------------------------


class LiveMetricsPublisher:
    """Push metrics snapshots over the :mod:`repro.adios.sst` engine.

    Each snapshot is one SST step carrying a single ``snapshot``
    variable: the JSON record as a uint8 byte array (the shape is
    re-declared per step since snapshots vary in size). An attached
    :class:`~repro.adios.sst.SSTReader` — same process or another
    thread — consumes steps with :func:`read_live_snapshot`.
    """

    def __init__(self, stream: str = "repro.metrics", *, queue_limit: int = 8):
        from repro.adios.api import Adios

        self.stream = str(stream)
        self.adios = Adios()
        self.io = self.adios.declare_io("repro.observe.live")
        self.io.set_engine("SST")
        self.io.set_parameter("QueueLimit", queue_limit)
        self.writer = self.io.open(self.stream, "w")
        self.published = 0

    def publish(self, record: dict) -> None:
        import numpy as np

        payload = np.frombuffer(
            json.dumps(record, sort_keys=True).encode(), dtype=np.uint8
        )
        self.io.remove_variable("snapshot")
        variable = self.io.define_variable(
            "snapshot",
            np.uint8,
            shape=(payload.size,),
            start=(0,),
            count=(payload.size,),
        )
        self.writer.begin_step()
        self.writer.put(variable, payload)
        self.writer.end_step()
        self.published += 1

    def close(self) -> None:
        self.writer.close()

    def __enter__(self) -> "LiveMetricsPublisher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_live_snapshot(reader, *, timeout: float = 30.0):
    """One ``(status, record)`` step from a live-metrics SST reader.

    ``status`` is the SST step status (``OK`` / ``EndOfStream`` /
    ``Timeout``); ``record`` is the decoded snapshot dict when OK.
    """
    from repro.adios.sst import OK

    status = reader.begin_step(timeout=timeout)
    if status != OK:
        return status, None
    data = reader.get("snapshot")
    reader.end_step()
    return status, json.loads(bytes(bytearray(data)).decode())
