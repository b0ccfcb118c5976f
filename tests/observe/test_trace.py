import threading

import pytest

from repro.observe import SIM, WALL, Tracer, trace
from repro.observe.stream import FlightRecorder
from repro.observe.trace import ID, TAG, SpanBatch, SpanKind, SpanRecord
from repro.util.errors import ObserveError, ReproError


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    assert trace.active() is None
    yield
    trace.deactivate()


class TestSpanRecord:
    def test_end_and_lane(self):
        t = Tracer()
        r = t.add_span(
            "k", cat="gpu", clock=SIM, process="gcd0", thread="kernel",
            start=1.0, seconds=0.5, args={"bytes": 64},
        )
        assert r.end == 1.5
        assert r.lane == ("gcd0", "kernel")
        assert r.arg("bytes") == 64
        assert r.arg("missing", "d") == "d"
        assert r.args_dict() == {"bytes": 64}


class TestTracer:
    def test_span_context_manager_measures_wall(self):
        t = Tracer()
        with t.span("work", cat="core", process="rank0", thread="core"):
            pass
        (r,) = t.spans
        assert r.clock == WALL
        assert r.seconds >= 0
        assert r.ph == "X"

    def test_span_recorded_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom", cat="core", process="rank0", thread="core"):
                raise ValueError("x")
        assert len(t) == 1

    def test_instant(self):
        t = Tracer()
        r = t.instant("mark", cat="adios", clock=WALL,
                      process="rank0", thread="adios")
        assert r.ph == "i"
        assert r.seconds == 0.0
        with pytest.raises(ObserveError, match="explicit ts"):
            t.instant("m", cat="gpu", clock=SIM, process="gcd0", thread="copy")

    def test_clock_domain_mixing_raises(self):
        t = Tracer()
        t.add_span("a", cat="gpu", clock=SIM, process="gcd0",
                   thread="kernel", start=0.0, seconds=1.0)
        with pytest.raises(ObserveError, match="one lane, one clock"):
            t.add_span("b", cat="gpu", clock=WALL, process="gcd0",
                       thread="kernel", start=0.0, seconds=1.0)
        # a different lane of the same process is fine
        t.add_span("c", cat="gpu", clock=WALL, process="gcd0",
                   thread="host", start=0.0, seconds=1.0)

    def test_bad_clock_and_negative_duration(self):
        t = Tracer()
        with pytest.raises(ObserveError, match="unknown clock"):
            t.add_span("a", cat="core", clock="tai", process="p",
                       thread="t", start=0, seconds=0)
        with pytest.raises(ObserveError, match="negative duration"):
            t.add_span("a", cat="core", clock=WALL, process="p",
                       thread="t", start=0, seconds=-1)

    def test_lanes_sorted_parent_first(self):
        t = Tracer()
        t.add_span("child", cat="core", clock=WALL, process="p",
                   thread="t", start=0.0, seconds=1.0)
        t.add_span("parent", cat="core", clock=WALL, process="p",
                   thread="t", start=0.0, seconds=5.0)
        records = t.lanes()[("p", "t")]
        assert [r.name for r in records] == ["parent", "child"]

    def test_select_and_by_category(self):
        t = Tracer()
        t.add_span("a", cat="mpi", clock=WALL, process="p", thread="mpi",
                   start=0, seconds=1)
        t.add_span("b", cat="gpu", clock=SIM, process="g", thread="kernel",
                   start=0, seconds=1)
        assert {r.name for r in t.select(cat="mpi")} == {"a"}
        assert set(t.by_category()) == {"mpi", "gpu"}

    def test_thread_safety(self):
        t = Tracer()

        def worker(i):
            for _ in range(100):
                t.add_span("s", cat="core", clock=WALL, process=f"rank{i}",
                           thread="core", start=0.0, seconds=0.1)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t) == 400


def batch(kinds, kind, *, ids=None, starts=None, seconds=None, tags=None):
    n = len(kind)
    return SpanBatch(
        kinds,
        kind=kind,
        id=ids if ids is not None else [0] * n,
        start=starts if starts is not None else [float(i) for i in range(n)],
        seconds=seconds if seconds is not None else [0.5] * n,
        tag=tags if tags is not None else [0] * n,
    )


KERNEL = SpanKind("k", "gpu", SIM, "gcd", "kernel", process_id=True,
                  args=(("gcd", ID), ("backend", "julia")))
WRITE = SpanKind("w", "adios", SIM, "oss", "write",
                 args=(("node", ID), ("step", TAG)))


class TestSpanBatch:
    def test_records_resolve_id_and_tag_columns(self):
        b = batch((KERNEL, WRITE), [0, 1, 0], ids=[3, 7, 2 ** 40],
                  starts=[0.0, 1.0, 2.0], seconds=[0.5, 0.25, 0.0],
                  tags=[9, 4, 9])
        assert b.records() == [
            SpanRecord("k", "gpu", SIM, "gcd3", "kernel", 0.0, 0.5,
                       args=(("gcd", 3), ("backend", "julia"))),
            SpanRecord("w", "adios", SIM, "oss", "write", 1.0, 0.25,
                       args=(("node", 7), ("step", 4))),
            SpanRecord("k", "gpu", SIM, f"gcd{2 ** 40}", "kernel", 2.0, 0.0,
                       args=(("gcd", 2 ** 40), ("backend", "julia"))),
        ]
        assert b.records(1, 2) == b.records()[1:2]

    def test_add_spans_retains_records_and_feeds_plain_sinks(self):
        recorder = FlightRecorder()
        t = Tracer(sinks=[recorder])
        b = batch((KERNEL, WRITE), [0, 0, 1, 0], ids=[0, 1, 0, 0])
        assert t.add_spans(b) == 4
        assert t.spans == b.records()
        assert recorder.spans() == b.records()
        assert t.add_spans(batch((KERNEL,), [])) == 0

    def test_rejected_batch_registers_no_lane(self):
        t = Tracer()
        t.add_span("wall", cat="core", clock=WALL, process="p", thread="x",
                   start=0.0, seconds=1.0)
        clash = SpanKind("x", "core", SIM, "p", "x")
        with pytest.raises(ObserveError, match="one lane, one clock"):
            t.add_spans(batch((KERNEL, clash), [0, 1]))
        # gcd0/kernel came first in the rejected batch; it stays free
        t.add_span("wall", cat="gpu", clock=WALL, process="gcd0",
                   thread="kernel", start=0.0, seconds=1.0)
        assert [r.process for r in t.spans] == ["p", "gcd0"]

    def test_clock_mixing_within_one_batch_raises(self):
        t = Tracer()
        wall_kernel = SpanKind("h", "gpu", WALL, "gcd", "kernel",
                               process_id=True)
        with pytest.raises(ObserveError, match="one lane, one clock"):
            t.add_spans(batch((KERNEL, wall_kernel), [0, 1], ids=[5, 5]))
        # different ids are different lanes
        t.add_spans(batch((KERNEL, wall_kernel), [0, 1], ids=[5, 6]))
        assert len(t) == 2

    def test_bad_clock_and_negative_duration_record_nothing(self):
        t = Tracer()
        tai = SpanKind("a", "core", "tai", "p", "t")
        with pytest.raises(ObserveError, match="unknown clock"):
            t.add_spans(batch((tai,), [0]))
        with pytest.raises(ObserveError, match="'k' has negative duration -1.0"):
            t.add_spans(batch((KERNEL,), [0, 0], seconds=[0.5, -1.0]))
        assert len(t) == 0
        # neither rejected batch bound its lanes to a clock
        t.add_span("a", cat="core", clock=WALL, process="p", thread="t",
                   start=0, seconds=0)
        t.add_span("b", cat="gpu", clock=WALL, process="gcd0",
                   thread="kernel", start=0, seconds=0)

    def test_malformed_columns_rejected(self):
        with pytest.raises(ObserveError, match="equal length"):
            batch((KERNEL,), [0, 0], ids=[1])
        with pytest.raises(ObserveError, match="kind index"):
            batch((KERNEL,), [0, 1])


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        assert trace.active() is None

    def test_activate_deactivate(self):
        tracer = trace.activate()
        assert trace.active() is tracer
        assert trace.deactivate() is tracer
        assert trace.active() is None

    def test_double_activate_raises(self):
        trace.activate()
        with pytest.raises(ObserveError, match="already active"):
            trace.activate()

    def test_session(self):
        with trace.session() as tracer:
            assert trace.active() is tracer
        assert trace.active() is None

    def test_observe_error_is_repro_error(self):
        assert issubclass(ObserveError, ReproError)
