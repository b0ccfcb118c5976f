"""Property-based invariants of the discrete-event engine oracle.

The engine's determinism is structural, not seeded: for any batch of
events the firing order is (time, insertion order), the clock never
moves backwards, and replaying the same schedule gives the same
trajectory. Hypothesis drives these with arbitrary delay batches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.timers import SimClock
from tests.oracles.engine import Delay, Engine

delays = st.lists(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40,
)


class TestEventOrdering:
    @given(delays)
    @settings(max_examples=50, deadline=None)
    def test_events_fire_sorted_by_time_then_insertion(self, batch):
        engine = Engine(mirror=False)
        fired = []
        for i, d in enumerate(batch):
            engine.schedule(d, lambda i=i, d=d: fired.append((d, i)))
        engine.run()
        # stable sort on time == (time, insertion seq) firing order
        assert fired == sorted(fired, key=lambda pair: pair[0])

    @given(delays)
    @settings(max_examples=50, deadline=None)
    def test_replay_is_identical(self, batch):
        def trajectory():
            engine = Engine(mirror=False)
            fired = []
            for i, d in enumerate(batch):
                engine.schedule(d, lambda i=i: fired.append((engine.clock.now, i)))
            end = engine.run()
            return end, fired

        assert trajectory() == trajectory()

    @given(delays)
    @settings(max_examples=50, deadline=None)
    def test_clock_never_runs_backwards(self, batch):
        engine = Engine(mirror=False)
        seen = []
        for d in batch:
            engine.schedule(d, lambda: seen.append(engine.clock.now))
        end = engine.run()
        assert seen == sorted(seen)
        assert end == max(batch)

    @given(delays)
    @settings(max_examples=50, deadline=None)
    def test_process_end_time_is_sum_of_delays(self, batch):
        engine = Engine(mirror=False)

        def program():
            for d in batch:
                yield Delay(d)

        process = engine.spawn("p", program())
        engine.run()
        total = 0.0
        for d in batch:
            total += d  # same left-to-right accumulation as the engine
        assert process.finished_at == total


class TestClockProperties:
    @given(st.lists(st.floats(0, 1e9, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_advance_to_is_monotone_max(self, stamps):
        clock = SimClock()
        running_max = 0.0
        for t in stamps:
            clock.advance_to(t)
            running_max = max(running_max, t)
            assert clock.now == running_max

    @given(
        st.floats(0, 1e9, allow_nan=False),
        st.lists(st.floats(0, 1e3, allow_nan=False), max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_copy_detaches(self, start, advances):
        clock = SimClock(start)
        snapshot = clock.copy()
        for d in advances:
            clock.advance(d)
        assert snapshot.now == start
