"""Sampling sim-profiler: the oracle engine hook, folded stacks, rendering."""

import pytest

from repro.sched import SimProfiler as EpochProfiler
from repro.sched import collapse_label
from repro.sched.profiler import MAX_SAMPLES, load_folded, render_stacks
from repro.util.errors import SchedError
from tests.oracles.engine import Delay, Engine, SimProfiler, Wait, use


class TestEngineHook:
    def test_samples_at_fixed_virtual_intervals(self):
        profiler = SimProfiler(interval=1.0)
        engine = Engine(mirror=False, profiler=profiler)

        def program():
            yield Delay(10.0, label="kernel")

        engine.spawn("rank0", program())
        engine.run()
        # samples fire at t=1..10 inclusive (first at `interval`)
        assert profiler.samples_taken == 10
        assert profiler.stacks == {("rank*", "delay(kernel)"): 10}

    def test_unlabelled_delay_samples_as_delay_state(self):
        profiler = SimProfiler(interval=0.5)
        engine = Engine(mirror=False, profiler=profiler)
        engine.spawn("p", (Delay(2.0) for _ in (0,)))
        engine.run()
        assert profiler.samples_taken == 4
        ((key, count),) = profiler.stacks.items()
        assert key[0] == "p"
        assert count == 4

    def test_blocked_states_attributed(self):
        profiler = SimProfiler(interval=1.0)
        engine = Engine(mirror=False, profiler=profiler)
        gcd = engine.resource("gcd")
        engine.spawn("rank0", use(gcd, 4.0, label="kernel"))
        engine.spawn("rank1", use(gcd, 4.0, label="kernel"))
        engine.run()
        # rank1 queues on the resource for the first 4 virtual seconds
        blocked = {
            state: count for (_, state), count in profiler.stacks.items()
        }
        assert sum(blocked.values()) == profiler.samples_taken * 2 - 4
        assert any("gcd" in state for state in blocked)

    def test_run_until_samples_idle_tail(self):
        profiler = SimProfiler(interval=1.0)
        engine = Engine(mirror=False, profiler=profiler)
        signal = engine.signal("never")

        def stuck():
            yield Wait(signal)

        engine.spawn("stuck", stuck())
        engine.schedule(10.0, lambda: None)  # keep the queue non-empty
        engine.run(until=3.0)
        assert profiler.samples_taken == 3
        assert profiler.stacks == {("stuck", "wait(never)"): 3}

    def test_no_profiler_costs_nothing(self):
        engine = Engine(mirror=False)
        engine.schedule(1.0, lambda: None)
        assert engine.profiler is None
        engine.run()

    def test_finished_processes_not_sampled(self):
        profiler = SimProfiler(interval=1.0)
        engine = Engine(mirror=False, profiler=profiler)
        engine.spawn("short", (Delay(1.0) for _ in (0,)))
        engine.spawn("long", (Delay(5.0) for _ in (0,)))
        engine.run()
        total = sum(
            count
            for (name, _), count in profiler.stacks.items()
            if name == "short"
        )
        # `short` only appears in the t=1 sample, never after it finishes
        assert total == 1

    def test_interval_must_be_positive(self):
        for bad in (0, -1.0):
            with pytest.raises(SchedError, match="interval"):
                SimProfiler(interval=bad)

    def test_sampling_compacts_finished_frames(self):
        # per-rank overhead stays O(live): once finished frames
        # outnumber live ones, a sample triggers engine compaction so
        # the next walk skips the dead bulk instead of re-testing it
        profiler = SimProfiler(interval=1.0)
        engine = Engine(mirror=False, profiler=profiler)
        for i in range(100):
            engine.spawn(f"short{i}", (Delay(0.5) for _ in (0,)))
        engine.spawn("long", (Delay(10.0) for _ in (0,)))
        assert len(engine._processes) == 101
        engine.run()
        # every sample lands after the 100 short frames finished; the
        # first one compacts the table down to the single live process
        assert len(engine._processes) <= 2
        total = sum(
            count
            for (name, _), count in profiler.stacks.items()
            if name == "short*"
        )
        assert total == 0  # finished frames never sampled


class TestCollapse:
    def test_collapse_label_folds_digit_runs(self):
        assert collapse_label("rank12345") == "rank*"
        assert collapse_label("gcd0.kernel7") == "gcd*.kernel*"
        assert collapse_label("plain") == "plain"

    def test_collapse_false_keeps_rank_ids(self):
        profiler = SimProfiler(interval=1.0, collapse=False)
        engine = Engine(mirror=False, profiler=profiler)
        for i in range(3):
            engine.spawn(f"rank{i}", (Delay(2.0, label="k") for _ in (0,)))
        engine.run()
        names = {name for name, _ in profiler.stacks}
        assert names == {"rank0", "rank1", "rank2"}


class TestOutput:
    def run_profiled(self):
        profiler = SimProfiler(interval=1.0)
        engine = Engine(mirror=False, profiler=profiler)
        for i in range(4):
            engine.spawn(f"rank{i}", (Delay(3.0, label="k") for _ in (0,)))
        engine.run()
        return profiler

    def test_folded_round_trip(self, tmp_path):
        profiler = self.run_profiled()
        path = profiler.write_folded(tmp_path / "prof.folded")
        assert load_folded(path) == profiler.stacks
        assert profiler.folded() == ["rank*;delay(k) 12"]

    def test_load_folded_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.folded"
        bad.write_text("rank*;delay(k) 3\nnot a folded line\n")
        with pytest.raises(SchedError, match="bad.folded:2"):
            load_folded(bad)
        with pytest.raises(SchedError, match="not found"):
            load_folded(tmp_path / "missing.folded")

    def test_render_ranks_heaviest_first(self):
        stacks = {("a", "x"): 1, ("b", "y"): 9}
        out = render_stacks(stacks, samples=10, width=10)
        lines = out.splitlines()
        assert lines[0] == "10 samples, 10 process-samples"
        assert "b;y" in lines[1] and "90.00%" in lines[1]
        assert "a;x" in lines[2]
        assert render_stacks({}) == "no samples"


class TestEpochCounts:
    """The epoch path's counter: sample grid and interval counts."""

    def test_sample_times_equal_running_sum_bitwise(self):
        profiler = EpochProfiler(interval=0.1)
        expected, s = [], 0.0
        while s <= 7.3:
            s += 0.1
            expected.append(s)
        times = profiler.sample_times(7.3)
        assert times[:len(expected)].tolist() == expected
        assert times[-1] > 7.3
        # growing the grid continues the same running sum
        longer = EpochProfiler(interval=0.1).sample_times(1.0)
        assert profiler.sample_times(1.0)[:longer.size].tolist() == (
            longer.tolist())

    def test_counts_samples_in_half_open_intervals(self):
        profiler = EpochProfiler(interval=1.0)
        profiler.add(("p", "s"), [0.0, 1.0, 2.5], [1.0, 1.0, 4.0])
        # (0, 1] holds t=1; (1, 1] none; (2.5, 4] holds t=3, 4
        assert profiler.stacks == {("p", "s"): 3}
        profiler.finish(4.5)
        assert profiler.samples_taken == 4

    def test_sample_grid_is_bounded(self):
        profiler = EpochProfiler(interval=1e-9)
        with pytest.raises(SchedError, match="raise the interval"):
            profiler.sample_times(1e-9 * MAX_SAMPLES)
