"""Streaming telemetry: shard writer, merge, flight recorder, live metrics."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.export import to_chrome_trace, write_chrome_trace
from repro.observe.metrics import MetricsRegistry
from repro.observe.stream import (
    MANIFEST_NAME,
    SHARD_SCHEMA,
    FlightRecorder,
    LiveMetricsPublisher,
    MetricsAggregator,
    ShardedPerfettoWriter,
    is_shard_source,
    iter_span_records,
    load_manifest,
    merge_shards,
    open_worker_sink,
    read_live_snapshot,
    rebuild_tracer,
    span_to_record,
    stream_sink,
    tail_spans,
    worker_shard_spec,
    write_merged,
)
from repro.observe.trace import (
    ID, SIM, TAG, WALL, SpanBatch, SpanKind, SpanRecord, Tracer,
)
from repro.util.errors import ObserveError


def pump(tracer, n, *, process="p", thread="core", clock=SIM, seconds=0.5):
    for i in range(n):
        tracer.add_span(
            f"op{i}", cat="core", clock=clock, process=process,
            thread=thread, start=float(i), seconds=seconds,
            args={"i": i},
        )


# ---------------------------------------------------------------------------
# sharded writer
# ---------------------------------------------------------------------------


class TestShardedWriter:
    def test_rotates_shards_and_writes_manifest(self, tmp_path):
        sink = ShardedPerfettoWriter(
            tmp_path / "shards", flush_threshold=10, shard_spans=25
        )
        tracer = Tracer(sinks=[sink], retain=False)
        pump(tracer, 60)
        tracer.close()
        manifest = load_manifest(tmp_path / "shards")
        assert manifest["schema"] == SHARD_SCHEMA
        assert manifest["spans"] == 60
        files = [e["file"] for e in manifest["shards"]]
        assert files == ["trace-00000.jsonl", "trace-00001.jsonl"]
        # 25-span rotation rounds to the flush boundary (30), so the
        # counts split 30/30
        assert [e["spans"] for e in manifest["shards"]] == [30, 30]
        assert len(tracer.spans) == 0  # retain=False keeps nothing

    def test_buffer_bounded_by_flush_threshold(self, tmp_path):
        sink = ShardedPerfettoWriter(tmp_path / "s", flush_threshold=16)
        tracer = Tracer(sinks=[sink], retain=False)
        pump(tracer, 1000)
        tracer.close()
        assert sink.max_buffered <= 16
        assert sink.total_spans == 1000

    def test_single_file_mode(self, tmp_path):
        target = tmp_path / "one.jsonl"
        sink = ShardedPerfettoWriter(target, flush_threshold=8)
        tracer = Tracer(sinks=[sink], retain=False)
        pump(tracer, 20)
        tracer.close()
        assert sink.single_file
        assert not (tmp_path / MANIFEST_NAME).exists()
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 20
        assert json.loads(lines[0])["name"] == "op0"

    def test_single_file_truncates_stale_spans(self, tmp_path):
        target = tmp_path / "one.jsonl"
        for run in range(2):
            sink = ShardedPerfettoWriter(target)
            tracer = Tracer(sinks=[sink], retain=False)
            pump(tracer, 5)
            tracer.close()
        assert len(target.read_text().strip().splitlines()) == 5

    def test_record_after_close_raises(self, tmp_path):
        sink = ShardedPerfettoWriter(tmp_path / "s")
        tracer = Tracer(sinks=[sink])
        pump(tracer, 1)
        sink.close()
        with pytest.raises(ObserveError, match="closed stream"):
            pump(tracer, 1)

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ObserveError, match="flush_threshold"):
            ShardedPerfettoWriter(tmp_path / "s", flush_threshold=0)
        with pytest.raises(ObserveError, match="shard_spans"):
            ShardedPerfettoWriter(tmp_path / "s", shard_spans=0)
        with pytest.raises(ObserveError, match="retain=False"):
            Tracer(retain=False)

    def test_adopt_shards_orders_entries(self, tmp_path):
        parent = ShardedPerfettoWriter(tmp_path / "s", flush_threshold=4)
        spec = worker_shard_spec(parent, "w000.00")
        wsink = open_worker_sink(spec)
        wtracer = Tracer(sinks=[wsink], retain=False)
        pump(wtracer, 7, process="w")
        entries = wsink.finish()
        assert [e["spans"] for e in entries] == [7]
        parent.adopt_shards(entries)
        tracer = Tracer(sinks=[parent], retain=False)
        pump(tracer, 3, process="parent")
        tracer.close()
        manifest = load_manifest(tmp_path / "s")
        assert manifest["spans"] == 10
        files = [e["file"] for e in manifest["shards"]]
        assert files[0].startswith("trace-w000.00-")
        # the parent's own post-adoption shard indexes past the
        # adopted entries
        assert files[1] == "trace-00001.jsonl"
        names = [k["name"] for k in iter_span_records(tmp_path / "s")]
        assert names == [f"op{i}" for i in range(7)] + ["op0", "op1", "op2"]

    def test_stream_sink_finds_directory_mode_only(self, tmp_path):
        jsonl = ShardedPerfettoWriter(tmp_path / "one.jsonl")
        assert stream_sink(Tracer(sinks=[jsonl], retain=False)) is None
        dirsink = ShardedPerfettoWriter(tmp_path / "dir")
        assert stream_sink(Tracer(sinks=[dirsink], retain=False)) is dirsink
        assert stream_sink(Tracer()) is None
        assert stream_sink(None) is None


# ---------------------------------------------------------------------------
# columnar batches
# ---------------------------------------------------------------------------


def oracle_lines(batch):
    """Per-span serialization of the batch's reference records."""
    return [
        json.dumps(span_to_record(r), separators=(",", ":"))
        for r in batch.records()
    ]


def written_lines(tmp_path, batch, name="batch.jsonl"):
    sink = ShardedPerfettoWriter(tmp_path / name, flush_threshold=3)
    sink.record_many(batch)
    sink.close()
    return (tmp_path / name).read_text().splitlines()


AWKWARD = (
    SpanKind('quo"te\\%s', "gpu", SIM, 'g"\\%d', "kernel", process_id=True,
             args=(("gcd", ID), ('b"k\\', "jül%ia"), ("f", 0.1))),
    SpanKind("bp5.\u00e9crit", "adios", SIM, "lustre\u2603", "w\tr",
             args=(("node", ID), ("step", TAG), ("ok", True), ("n", None))),
    SpanKind("halo", "mpi", SIM, "vrank", "mpi", process_id=True),
)


def awkward_batch(start, seconds):
    n = len(start)
    return SpanBatch(
        AWKWARD,
        kind=[i % 3 for i in range(n)],
        id=[2 ** 31 + i if i % 2 else -i for i in range(n)],
        start=start,
        seconds=seconds,
        tag=[2 ** 62 - i for i in range(n)],
    )


def recorded_lines(tmp_path, spans):
    sink = ShardedPerfettoWriter(tmp_path / "spans.jsonl", flush_threshold=3)
    for span in spans:
        sink.record(span)
    sink.close()
    return (tmp_path / "spans.jsonl").read_text().splitlines()


class TestSpanSerialization:
    """Single spans are buffered as records and formatted at flush."""

    def test_lines_equal_per_span_json(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        spans = [
            SpanRecord("step.compute", "core", WALL, "rank0", "core", 0.1, 1 / 3,
                       (("step", 3),)),
            SpanRecord('q"u\\o%s', "c\u00e9", SIM, "p\u2603", "t\n", nan, inf,
                       (("b", True), ("n", None), ("l", [1, 2.5]), ("x", -inf)), "i"),
            SpanRecord("ints", "c", SIM, "p", "t", 3, 2 ** 70, ((1, "k"), ("s", 0))),
            SpanRecord("dup", "c", SIM, "p", "t", -0.0, 5e-324, (("k", 1), ("k", 2))),
            SpanRecord("empty", "c", WALL, "p", "t", 1e22, 0.0),
        ]
        assert recorded_lines(tmp_path, spans) == [
            json.dumps(span_to_record(s), separators=(",", ":")) for s in spans
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.lists(st.text(max_size=6), min_size=6, max_size=6),
        times=st.tuples(st.floats(), st.one_of(st.floats(), st.integers())),
        args=st.dictionaries(
            st.text(max_size=4),
            st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.text(max_size=4)),
            max_size=4,
        ),
    )
    def test_lines_equal_per_span_json_property(
        self, tmp_path_factory, text, times, args
    ):
        span = SpanRecord(*text[:5], *times, tuple(sorted(args.items())), text[5])
        tmp_path = tmp_path_factory.mktemp("span")
        assert recorded_lines(tmp_path, [span]) == [
            json.dumps(span_to_record(span), separators=(",", ":"))
        ]


class TestBatchSerialization:
    def test_lines_equal_per_span_json(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        batch = awkward_batch(
            [0.0, -0.0, 1e-300, 1e22, nan, inf, -inf, 0.1],
            [inf, 0.5, nan, 5e-324, 0.0, 1.0 / 3, 123456789.0, inf],
        )
        lines = written_lines(tmp_path, batch)
        assert lines == oracle_lines(batch)
        assert "NaN" in lines[4] and "Infinity" in lines[0]

    def test_empty_batch_writes_nothing(self, tmp_path):
        assert written_lines(tmp_path, awkward_batch([], [])) == []

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.integers(-(2 ** 63), 2 ** 63 - 1),
                st.floats(),
                st.floats(),
                st.integers(-(2 ** 63), 2 ** 63 - 1),
            ),
            max_size=40,
        ),
        names=st.lists(st.text(max_size=6), min_size=5, max_size=5),
        constant=st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        ),
    )
    def test_lines_equal_per_span_json_property(
        self, tmp_path_factory, rows, names, constant
    ):
        kinds = (
            SpanKind(names[0], names[1], SIM, names[2], "t", process_id=True,
                     args=((names[3], ID), (names[4] + "c", constant))),
            SpanKind(names[1], "c", WALL, names[0], names[3],
                     args=((names[2], TAG), ("id", ID))),
        )
        batch = SpanBatch(
            kinds,
            kind=[r[0] for r in rows],
            id=[r[1] for r in rows],
            start=[r[2] for r in rows],
            seconds=[r[3] for r in rows],
            tag=[r[4] for r in rows],
        )
        tmp_path = tmp_path_factory.mktemp("prop")
        assert written_lines(tmp_path, batch) == oracle_lines(batch)

    def test_rotation_mid_batch_matches_per_span_record(self, tmp_path):
        batch = awkward_batch(
            [float(i) for i in range(40)], [0.25 * i for i in range(40)]
        )
        by_batch = ShardedPerfettoWriter(
            tmp_path / "batch", flush_threshold=5, shard_spans=13
        )
        by_span = ShardedPerfettoWriter(
            tmp_path / "span", flush_threshold=5, shard_spans=13
        )
        # a few spans first, so the batch starts on a part-full buffer
        for sink in (by_batch, by_span):
            for record in batch.records(0, 3):
                sink.record(record)
        by_batch.record_many(batch)
        for record in batch.records():
            by_span.record(record)
        by_batch.close()
        by_span.close()
        files = sorted(p.name for p in (tmp_path / "span").iterdir())
        assert len(files) > 3  # rotated inside the batch
        assert sorted(p.name for p in (tmp_path / "batch").iterdir()) == files
        for name in files:
            assert (tmp_path / "batch" / name).read_bytes() == (
                tmp_path / "span" / name
            ).read_bytes()
        assert by_batch.max_buffered == by_span.max_buffered <= 5

    def test_negative_duration_batch_records_nothing(self, tmp_path):
        sink = ShardedPerfettoWriter(tmp_path / "s", flush_threshold=2)
        tracer = Tracer(sinks=[sink])
        batch = awkward_batch([0.0, 1.0, 2.0], [0.5, 0.5, -0.5])
        with pytest.raises(ObserveError, match="negative duration"):
            tracer.add_spans(batch)
        tracer.close()
        assert len(tracer) == 0
        assert load_manifest(tmp_path / "s")["spans"] == 0
        assert [p.name for p in (tmp_path / "s").iterdir()] == [MANIFEST_NAME]


# ---------------------------------------------------------------------------
# reading and merging
# ---------------------------------------------------------------------------


class TestMerge:
    def make_tracer(self):
        tracer = Tracer()
        pump(tracer, 37, process="gcd0", thread="kernel")
        pump(tracer, 11, process="rank0", thread="core", clock=WALL)
        tracer.instant(
            "marker", cat="core", clock=SIM, process="gcd0",
            thread="kernel", ts=40.0,
        )
        return tracer

    def replay(self, source_tracer, sink):
        streamed = Tracer(sinks=[sink], retain=False)
        for span in source_tracer.spans:
            streamed.add_span(
                span.name, cat=span.cat, clock=span.clock,
                process=span.process, thread=span.thread,
                start=span.start, seconds=span.seconds,
                args=span.args_dict(), ph=span.ph,
            )
        streamed.close()

    def test_merged_shards_byte_identical_to_monolith(self, tmp_path):
        tracer = self.make_tracer()
        mono = write_chrome_trace(tracer, tmp_path / "mono.json")
        self.replay(
            tracer,
            ShardedPerfettoWriter(
                tmp_path / "shards", flush_threshold=5, shard_spans=13
            ),
        )
        merged = write_merged(tmp_path / "shards", tmp_path / "merged.json")
        assert mono.read_bytes() == merged.read_bytes()

    def test_jsonl_merge_and_manifest_path(self, tmp_path):
        tracer = self.make_tracer()
        mono = to_chrome_trace(tracer)
        self.replay(tracer, ShardedPerfettoWriter(tmp_path / "one.jsonl"))
        assert merge_shards(tmp_path / "one.jsonl") == mono
        self.replay(tracer, ShardedPerfettoWriter(tmp_path / "d"))
        assert merge_shards(tmp_path / "d" / MANIFEST_NAME) == mono

    def test_rebuild_tracer_round_trips_spans(self, tmp_path):
        tracer = self.make_tracer()
        self.replay(tracer, ShardedPerfettoWriter(tmp_path / "s"))
        rebuilt = rebuild_tracer(tmp_path / "s")
        assert [span_to_record(s) for s in rebuilt.spans] == [
            span_to_record(s) for s in tracer.spans
        ]

    def test_tail_spans(self, tmp_path):
        tracer = Tracer(sinks=[ShardedPerfettoWriter(tmp_path / "s")],
                        retain=False)
        pump(tracer, 30)
        tracer.close()
        tail = tail_spans(tmp_path / "s", 4)
        assert [t["name"] for t in tail] == ["op26", "op27", "op28", "op29"]

    def test_is_shard_source(self, tmp_path):
        (tmp_path / "d").mkdir()
        assert is_shard_source(tmp_path / "d")
        assert is_shard_source(tmp_path / "x.jsonl")
        assert is_shard_source(tmp_path / MANIFEST_NAME)
        assert not is_shard_source(tmp_path / "trace.json")

    def test_errors(self, tmp_path):
        with pytest.raises(ObserveError, match="manifest not found"):
            load_manifest(tmp_path / "missing")
        (tmp_path / MANIFEST_NAME).write_text('{"schema": "nope"}')
        with pytest.raises(ObserveError, match="not a"):
            load_manifest(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ObserveError, match="not valid JSON"):
            list(iter_span_records(bad))
        partial = tmp_path / "partial.jsonl"
        partial.write_text('{"name": "x"}\n')
        with pytest.raises(ObserveError, match="missing fields"):
            list(iter_span_records(partial))


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_per_lane_ring_eviction(self):
        fr = FlightRecorder(per_lane=3)
        tracer = Tracer(sinks=[fr], retain=False)
        pump(tracer, 10, process="a")
        pump(tracer, 2, process="b")
        assert len(fr) == 5  # 3 on lane a + 2 on lane b
        assert fr.evicted == 7
        assert fr.recorded == 12
        names = [s.name for s in fr.spans() if s.process == "a"]
        assert names == ["op7", "op8", "op9"]

    def test_error_and_slow_spans_always_kept(self):
        fr = FlightRecorder(per_lane=2, slow_seconds=10.0)
        tracer = Tracer(sinks=[fr], retain=False)
        tracer.add_span("slow", cat="core", clock=SIM, process="p",
                        thread="t", start=0.0, seconds=60.0)
        tracer.add_span("bad", cat="core", clock=SIM, process="p",
                        thread="t", start=1.0, seconds=0.1,
                        args={"error": "boom"})
        pump(tracer, 50, process="p", thread="t", seconds=0.5)
        kept = [s.name for s in fr.spans()]
        assert kept[:2] == ["slow", "bad"]
        assert len(kept) == 4  # the 2 kept + ring of 2

    def test_keep_predicate(self):
        fr = FlightRecorder(per_lane=1, keep=lambda s: s.name == "op3")
        tracer = Tracer(sinks=[fr], retain=False)
        pump(tracer, 10)
        assert {s.name for s in fr.spans()} == {"op3", "op9"}

    def test_dump_preserves_record_order(self):
        fr = FlightRecorder(per_lane=2)
        tracer = Tracer(sinks=[fr], retain=False)
        pump(tracer, 4, process="a")
        pump(tracer, 2, process="b")
        dumped = fr.dump()
        assert [s.name for s in dumped.spans] == ["op2", "op3", "op0", "op1"]
        assert [s.process for s in dumped.spans] == ["a", "a", "b", "b"]

    def test_guard_dumps_on_exception(self, tmp_path):
        fr = FlightRecorder(per_lane=4)
        tracer = Tracer(sinks=[fr], retain=False)
        out = tmp_path / "crash.json"
        with pytest.raises(RuntimeError):
            with fr.guard(out):
                pump(tracer, 3)
                raise RuntimeError("boom")
        obj = json.loads(out.read_text())
        names = [e["name"] for e in obj["traceEvents"] if e["ph"] == "X"]
        assert names == ["op0", "op1", "op2"]

    def test_guard_quiet_on_success(self, tmp_path):
        fr = FlightRecorder()
        out = tmp_path / "crash.json"
        with fr.guard(out):
            pass
        assert not out.exists()

    def test_bad_per_lane(self):
        with pytest.raises(ObserveError, match="per_lane"):
            FlightRecorder(per_lane=0)


# ---------------------------------------------------------------------------
# live metrics
# ---------------------------------------------------------------------------


class TestMetricsAggregator:
    def test_counter_rates_between_snapshots(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        reg.counter("msgs", rank=0).inc(10)
        first = agg.snapshot(now=0.0)
        assert first["counters"][0]["rate"] is None  # no prior interval
        reg.counter("msgs", rank=0).inc(6)
        second = agg.snapshot(now=2.0)
        assert second["interval_seconds"] == 2.0
        assert second["counters"][0]["rate"] == pytest.approx(3.0)
        assert second["seq"] == 2

    def test_histograms_snapshot_bounded(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        for v in range(100):
            hist.observe(float(v))
        reg.histogram("empty")
        agg = MetricsAggregator(reg)
        record = agg.snapshot(now=1.0)
        by_name = {h["name"]: h for h in record["histograms"]}
        assert by_name["empty"]["count"] == 0
        assert by_name["lat"]["count"] == 100
        assert by_name["lat"]["p99"] == 98.0
        # the snapshot is a fixed-size summary, never the sample list
        assert "samples" not in by_name["lat"]

    def test_gauges_and_json_round_trip(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(4)
        record = MetricsAggregator(reg).snapshot(now=0.5)
        assert json.loads(json.dumps(record)) == record
        assert record["gauges"][0]["value"] == 4.0


class TestLivePublish:
    def test_sst_round_trip(self):
        from repro.adios.api import Adios

        reg = MetricsRegistry()
        reg.counter("events").inc(5)
        publisher = LiveMetricsPublisher("live-metrics-test")
        agg = MetricsAggregator(reg, publisher=publisher)

        adios = Adios()
        io = adios.declare_io("watcher")
        io.set_engine("SST")
        received = []

        def watch():
            reader = io.open("live-metrics-test", "r")
            while True:
                status, record = read_live_snapshot(reader, timeout=10.0)
                if record is None:
                    break
                received.append(record)
            reader.close()

        thread = threading.Thread(target=watch)
        thread.start()
        agg.snapshot(now=0.0)
        reg.counter("events").inc(5)
        agg.snapshot(now=1.0)
        agg.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert [r["seq"] for r in received] == [1, 2]
        assert received[1]["counters"][0]["rate"] == pytest.approx(5.0)
