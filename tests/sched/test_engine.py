"""The discrete-event engine oracle: ordering, resources, processes, mirroring."""

import pytest

from repro.observe.trace import SIM, Tracer
from repro.util.errors import SchedError
from tests.oracles.engine import (
    Acquire, Delay, Engine, Join, Release, Wait, delay, series, use,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine(mirror=False)
        fired = []
        engine.schedule(2.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        engine.schedule(3.0, lambda: fired.append("last"))
        assert engine.run() == 3.0
        assert fired == ["early", "late", "last"]

    def test_ties_fire_in_schedule_order(self):
        engine = Engine(mirror=False)
        fired = []
        for i in range(50):
            engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == list(range(50))

    def test_negative_delay_rejected(self):
        engine = Engine(mirror=False)
        with pytest.raises(SchedError):
            engine.schedule(-0.1, lambda: None)

    def test_nonfinite_delay_rejected(self):
        engine = Engine(mirror=False)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(SchedError):
                engine.schedule(bad, lambda: None)

    def test_run_until_stops_early(self):
        engine = Engine(mirror=False)
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        assert engine.run(until=2.0) == 2.0
        assert fired == [1]

    def test_events_scheduled_during_run_fire(self):
        engine = Engine(mirror=False)
        fired = []
        engine.schedule(
            1.0, lambda: engine.schedule(1.0, lambda: fired.append("chained"))
        )
        assert engine.run() == 2.0
        assert fired == ["chained"]


class TestProcesses:
    def test_delays_accumulate(self):
        engine = Engine(mirror=False)

        def program():
            yield Delay(1.5)
            yield Delay(2.5)
            return "done"

        process = engine.spawn("p", program())
        engine.run()
        assert process.result == "done"
        assert process.finished_at == 4.0

    def test_spawn_rejects_non_generator(self):
        engine = Engine(mirror=False)
        with pytest.raises(SchedError, match="generator"):
            engine.spawn("p", lambda: None)

    def test_invalid_yield_rejected(self):
        engine = Engine(mirror=False)

        def program():
            yield "not a command"

        engine.spawn("p", program())
        with pytest.raises(SchedError, match="yielded"):
            engine.run()

    def test_join_returns_result(self):
        engine = Engine(mirror=False)

        def child():
            yield Delay(3.0)
            return 42

        def parent(c):
            got = yield Join(c)
            return got

        c = engine.spawn("child", child())
        p = engine.spawn("parent", parent(c))
        engine.run()
        assert p.result == 42
        assert p.finished_at == 3.0

    def test_join_already_finished_process(self):
        engine = Engine(mirror=False)

        def child():
            yield Delay(1.0)
            return "early"

        def parent(c):
            yield Delay(5.0)
            got = yield Join(c)
            return got

        c = engine.spawn("child", child())
        p = engine.spawn("parent", parent(c))
        engine.run()
        assert p.result == "early"
        assert p.finished_at == 5.0

    def test_wait_on_signal(self):
        engine = Engine(mirror=False)
        signal = engine.signal("go")

        def waiter():
            value = yield Wait(signal)
            return value

        p = engine.spawn("w", waiter())
        engine.schedule(2.0, lambda: signal.fire("payload"))
        engine.run()
        assert p.result == "payload"
        assert p.finished_at == 2.0

    def test_signal_fires_once(self):
        engine = Engine(mirror=False)
        signal = engine.signal()
        signal.fire()
        with pytest.raises(SchedError, match="twice"):
            signal.fire()

    def test_series_composes(self):
        engine = Engine(mirror=False)
        p = engine.spawn("s", series([delay(1.0), delay(2.0)]))
        engine.run()
        assert p.finished_at == 3.0

    def test_check_quiescent_reports_stuck(self):
        engine = Engine(mirror=False)
        signal = engine.signal("never")

        def stuck():
            yield Wait(signal)

        engine.spawn("stuck-proc", stuck())
        engine.run()
        with pytest.raises(SchedError, match="stuck-proc"):
            engine.check_quiescent()


class _SubDelay(Delay):
    pass


class _SubAcquire(Acquire):
    pass


class _SubJoin(Join):
    pass


class TestSubclassedCommands:
    """A subclassed command takes its base class's dispatch branch."""

    @staticmethod
    def _schedule(delay_cls, acquire_cls, join_cls):
        tracer = Tracer()
        engine = Engine(tracer=tracer)
        gcd = engine.resource("gcd")

        def kernel(seconds):
            yield acquire_cls(gcd)
            yield delay_cls(seconds, label="kernel", cat="gpu")
            yield Release(gcd)
            return seconds

        def host():
            kernels = [
                engine.spawn(f"k{i}", kernel(s))
                for i, s in enumerate((2.0, 0.5, 1.25))
            ]
            yield delay_cls(0.75, label="setup")
            results = []
            for process in kernels:
                results.append((yield join_cls(process)))
            yield delay_cls(0.0)
            return results, [process.finished_at for process in kernels]

        root = engine.spawn("host", host())
        end = engine.run()
        engine.check_quiescent()
        stats = gcd.stats
        spans = [
            (s.name, s.cat, s.process, s.thread, s.start, s.seconds)
            for s in tracer.spans if s.clock == SIM
        ]
        return (
            end, root.result, root.finished_at, engine.events_processed,
            (stats.acquires, stats.waits, stats.wait_seconds,
             stats.busy_seconds),
            spans,
        )

    def test_subclasses_schedule_as_their_bases(self):
        base = self._schedule(Delay, Acquire, Join)
        assert base[1] == ([2.0, 0.5, 1.25], [2.0, 2.5, 3.75])
        assert self._schedule(_SubDelay, _SubAcquire, _SubJoin) == base

    def test_subclassed_delay_is_validated(self):
        engine = Engine(mirror=False)

        def program():
            yield _SubDelay(-1.0)

        engine.spawn("p", program())
        with pytest.raises(SchedError, match="invalid delay"):
            engine.run()


class TestResources:
    def test_capacity_one_serializes(self):
        engine = Engine(mirror=False)
        gcd = engine.resource("gcd")
        a = engine.spawn("a", use(gcd, 2.0))
        b = engine.spawn("b", use(gcd, 3.0))
        engine.run()
        # FIFO: a holds [0, 2), b waits then holds [2, 5)
        assert a.finished_at == 2.0
        assert b.finished_at == 5.0
        assert gcd.stats.waits == 1
        assert gcd.stats.wait_seconds == 2.0
        assert gcd.stats.busy_seconds == 5.0

    def test_capacity_two_overlaps(self):
        engine = Engine(mirror=False)
        link = engine.resource("link", capacity=2)
        a = engine.spawn("a", use(link, 2.0))
        b = engine.spawn("b", use(link, 3.0))
        engine.run()
        assert a.finished_at == 2.0
        assert b.finished_at == 3.0
        assert link.stats.waits == 0

    def test_over_release_raises(self):
        engine = Engine(mirror=False)
        res = engine.resource("r")

        def bad():
            yield Release(res)

        engine.spawn("bad", bad())
        with pytest.raises(SchedError, match="over-release"):
            engine.run()

    def test_memoized_capacity_conflict(self):
        engine = Engine(mirror=False)
        engine.resource("oss", capacity=4)
        assert engine.resource("oss", capacity=4).capacity == 4
        with pytest.raises(SchedError, match="capacity"):
            engine.resource("oss", capacity=8)

    def test_acquire_more_than_capacity_raises(self):
        engine = Engine(mirror=False)
        res = engine.resource("r", capacity=2)
        engine.spawn("p", use(res, 1.0, tokens=3))
        with pytest.raises(SchedError, match="acquire"):
            engine.run()


class TestBarrier:
    def test_all_leave_at_last_arrival(self):
        engine = Engine(mirror=False)
        barrier = engine.barrier(3)

        def party(seconds):
            yield Delay(seconds)
            yield from barrier.wait()

        procs = [engine.spawn(f"p{i}", party(s)) for i, s in enumerate((1.0, 5.0, 3.0))]
        engine.run()
        assert [p.finished_at for p in procs] == [5.0, 5.0, 5.0]

    def test_reusable_generations(self):
        engine = Engine(mirror=False)
        barrier = engine.barrier(2)

        def party(seconds):
            for _ in range(3):
                yield Delay(seconds)
                yield from barrier.wait()

        a = engine.spawn("a", party(1.0))
        b = engine.spawn("b", party(2.0))
        engine.run()
        # every round synchronizes at the slower party: 2, 4, 6
        assert a.finished_at == b.finished_at == 6.0
        assert barrier.generation == 3


class TestMirroring:
    def test_labelled_delay_becomes_sim_span(self):
        tracer = Tracer()
        engine = Engine(tracer=tracer)

        def program():
            yield Delay(1.0)  # unlabelled: silent
            yield Delay(2.0, label="kernel", cat="gpu", lane=("gcd0", "kernel"))

        engine.spawn("p", program())
        engine.run()
        spans = tracer.spans
        assert len(spans) == 1
        assert spans[0].name == "kernel"
        assert spans[0].clock == SIM
        assert spans[0].start == 1.0
        assert spans[0].seconds == 2.0
        assert engine.spans_mirrored == 1

    def test_use_attributes_span_to_resource_lane(self):
        tracer = Tracer()
        engine = Engine(tracer=tracer)
        oss = engine.resource("oss", lane=("lustre", "write"))
        engine.spawn("p", use(oss, 4.0, label="bp5.write", cat="adios"))
        engine.run()
        (span,) = tracer.spans
        assert (span.process, span.thread) == ("lustre", "write")
        assert span.cat == "adios"

    def test_events_processed_metric_recorded(self):
        tracer = Tracer()
        engine = Engine(name="m", tracer=tracer)
        engine.schedule(1.0, lambda: None)
        engine.run()
        gauges = tracer.metrics.gauges()
        assert any(g.name == "sched.events_processed" for g in gauges)

    def test_mirror_false_suppresses_spans(self):
        tracer = Tracer()
        engine = Engine(tracer=tracer, mirror=False)
        engine.spawn("p", delay(1.0, label="kernel"))
        engine.run()
        assert tracer.spans == []


class TestUsePlan:
    """UsePlan.use() must be observationally identical to use()."""

    def _run(self, factory):
        tracer = Tracer()
        engine = Engine(tracer=tracer)
        gcd = engine.resource("gcd", capacity=2, lane=("node0", "gpu"))

        def worker(make_use):
            for _ in range(3):
                yield from make_use(gcd)

        make = factory(gcd)
        for i in range(4):
            engine.spawn(f"w{i}", worker(make))
        engine.run()
        return engine, gcd, tracer

    def test_plan_matches_adhoc_use(self):
        from tests.oracles.engine import UsePlan

        adhoc, gcd_a, tr_a = self._run(
            lambda gcd: lambda r: use(r, 1.5, label="kernel", cat="gpu")
        )
        plan = UsePlan
        planned, gcd_p, tr_p = self._run(
            lambda gcd: (lambda p: (lambda r: p.use()))(
                plan(gcd, 1.5, label="kernel", cat="gpu")
            )
        )
        assert planned.now == adhoc.now
        assert gcd_p.stats.busy_seconds == gcd_a.stats.busy_seconds
        assert gcd_p.stats.acquires == gcd_a.stats.acquires
        assert gcd_p.stats.waits == gcd_a.stats.waits
        assert gcd_p.stats.wait_seconds == gcd_a.stats.wait_seconds
        assert len(tr_p.spans) == len(tr_a.spans)
        assert [(s.start, s.seconds, s.name) for s in tr_p.spans] == [
            (s.start, s.seconds, s.name) for s in tr_a.spans
        ]

    def test_plan_defaults_label_to_resource_name(self):
        from tests.oracles.engine import UsePlan

        tracer = Tracer()
        engine = Engine(tracer=tracer)
        nic = engine.resource("nic0", lane=("node0", "mpi"))
        engine.spawn("p", UsePlan(nic, 2.0).use())
        engine.run()
        (span,) = tracer.spans
        assert span.name == "nic0"
        assert nic.stats.busy_seconds == 2.0

    def test_plan_is_reusable_across_processes(self):
        from tests.oracles.engine import UsePlan

        engine = Engine()
        res = engine.resource("r", capacity=1)
        plan = UsePlan(res, 1.0)
        for i in range(5):
            engine.spawn(f"p{i}", plan.use())
        engine.run()
        # capacity-1 resource serializes the five holders
        assert engine.now == 5.0
        assert res.stats.busy_seconds == 5.0
