"""The epoch recurrences: epoch queues, the generator oracle, sharding.

The million-rank contract has three layers, each pinned here:

1. the oracle event engine dispatches same-time events FIFO and reports
   its queue accounting;
2. :func:`repro.sched.vector.simulate_epoch` reproduces a pure-Python
   reference recurrence bit for bit, and the epoch queue replays spans
   in heap dispatch order;
3. ``VirtualWorkflow.run``, inline at ``jobs=1`` and sharded at
   ``jobs=4``/``jobs=8``, agrees with the per-rank generators of
   ``tests/oracles/virtual.py`` on every modeled output (reductions,
   barrier recurrences, per-rank finish times, SIM span multisets,
   folded profiles), with NIC contention on and off, and with
   ``events_processed`` the one documented exclusion.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.settings import GrayScottSettings
from repro.core.virtual import VirtualWorkflow
from repro.observe.trace import SIM, Tracer
from repro.sched import (
    EpochEventQueue,
    EpochSpec,
    EpochWrites,
    SimProfiler,
    simulate_epoch,
)
from repro.util.errors import SchedError
from tests.oracles import engine as oracle_engine
from tests.oracles.engine import Engine
from tests.oracles.virtual import run_serial


def _settings(**kw):
    base = dict(L=64, steps=4, plotgap=2, backend="julia")
    base.update(kw)
    return GrayScottSettings(**base)


def _sim_spans(tracer):
    """The SIM-clock span multiset (pool wall spans are jobs-dependent)."""
    return collections.Counter(
        s for s in tracer.spans if s.clock == SIM
    )


# -- 1. the event engine ------------------------------------------------------


class TestEngineDrain:
    def test_same_time_ties_fire_fifo(self):
        engine = Engine(mirror=False)
        fired = []
        for i in range(100):
            engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == list(range(100))

    def test_counters_reach_the_metrics_registry(self):
        tracer = Tracer()
        engine = Engine(name="counted", tracer=tracer)
        for _ in range(10):
            engine.schedule(1.0, lambda: None)
        engine.run()
        pushes = tracer.metrics.counter("sched.heap_pushes", engine="counted")
        assert pushes.value == engine.heap_pushes == 10
        assert engine.events_processed == 10


# -- 2. the epoch queue and the vector recurrence ----------------------------


class TestEpochEventQueue:
    def test_sorted_by_when_then_seq(self):
        queue = EpochEventQueue()
        ranks = np.arange(3)
        queue.push(1, np.array([2.0, 1.0, 1.0]), 0.5, ranks)
        queue.push(2, np.array([1.0, 3.0, 0.0]), 0.25, ranks)
        events, seconds, _ = queue.sorted_events()
        order = [(float(e["when"]), int(e["seq"])) for e in events]
        assert order == sorted(order)
        # the two when=1.0 pushes keep FIFO order: batch-1 seqs 1,2
        # fire before batch-2 seq 3
        assert [int(e["seq"]) for e in events if e["when"] == 1.0] == [1, 2, 3]
        assert len(queue) == 6
        assert seconds.size == 6

    def test_order_equals_structured_argsort_on_ties(self):
        rng = np.random.default_rng(7)
        queue = EpochEventQueue()
        for op in (2, 1, 3, 2, 0):
            # few distinct times, so most events tie on ``when``
            when = rng.integers(0, 4, size=50).astype(np.float64) * 0.5
            queue.push(op, when, rng.random(50), np.arange(50), tag=op)
        events, seconds, tags = queue.sorted_events()
        raw = np.concatenate([chunk[0] for chunk in queue._chunks])
        expected = raw[np.argsort(raw, order=("when", "seq"))]
        assert events.tobytes() == expected.tobytes()
        raw_seconds = np.concatenate([chunk[1] for chunk in queue._chunks])
        assert seconds.tolist() == raw_seconds[expected["seq"]].tolist()
        assert tags.tolist() == expected["op"].tolist()

    def test_empty_push_ignored(self):
        queue = EpochEventQueue()
        queue.push(1, np.empty(0), 1.0, np.empty(0, dtype=np.int64))
        assert len(queue) == 0
        events, _, _ = queue.sorted_events()
        assert events.size == 0

    def test_mismatched_epoch_arrays_rejected(self):
        spec = EpochSpec(
            ranks=np.arange(4),
            starts=np.zeros(3),
            kernel=np.ones(3),
            comm=np.ones(3),
            nsteps=1,
            overlap=False,
        )
        with pytest.raises(SchedError, match="disagree"):
            simulate_epoch(spec)


epoch_cases = st.tuples(
    st.integers(1, 12),  # ranks
    st.integers(0, 4),  # steps
    st.booleans(),  # overlap
    st.floats(0.0, 2.0, allow_nan=False),  # jit seconds
    st.integers(0, 10_000),  # seed for the per-rank costs
)


def _reference_epoch(starts, kernel, comm, nsteps, overlap, jit_seconds,
                     write_index, write_seconds, final):
    """The generator engine's float recurrence, in pure Python floats."""
    t = [float(v) for v in starts]
    if jit_seconds > 0.0:
        t = [v + jit_seconds for v in t]
    ends = {}
    for pos, (i, w) in enumerate(zip(write_index, write_seconds)):
        ends[i] = t[i] + w
        if not overlap:
            t[i] = ends[i]
    for _ in range(nsteps):
        if overlap:
            t = [max(v + k, v + c) for v, k, c in zip(t, kernel, comm)]
        else:
            t = [(v + k) + c for v, k, c in zip(t, kernel, comm)]
    if final and overlap:
        for i, end in ends.items():
            t[i] = max(t[i], end)
    return t


class TestVectorEpoch:
    @given(epoch_cases)
    @settings(max_examples=80, deadline=None)
    def test_arrivals_match_scalar_recurrence_bitwise(self, case):
        n, nsteps, overlap, jit_seconds, seed = case
        gen = np.random.default_rng(seed)
        starts = gen.uniform(0.0, 5.0, n)
        kernel = gen.uniform(0.0, 1.0, n)
        comm = gen.uniform(0.0, 1.0, n)
        write_index = np.arange(0, n, 3, dtype=np.int64)
        write_seconds = gen.uniform(0.0, 2.0, write_index.size)
        spec = EpochSpec(
            ranks=np.arange(n),
            starts=starts,
            kernel=kernel,
            comm=comm,
            nsteps=nsteps,
            overlap=overlap,
            jit_seconds=jit_seconds,
            writes=EpochWrites(
                index=write_index,
                nodes=write_index // 2,
                seconds=write_seconds,
                output_step=1,
            ),
            final=True,
        )
        result = simulate_epoch(spec)
        reference = _reference_epoch(
            starts, kernel, comm, nsteps, overlap, jit_seconds,
            write_index, write_seconds, final=True,
        )
        assert result.arrivals.tolist() == reference
        assert result.events > 0

    def test_zero_jit_emits_no_event(self):
        queue = EpochEventQueue()
        spec = EpochSpec(
            ranks=np.arange(2),
            starts=np.zeros(2),
            kernel=np.ones(2),
            comm=np.ones(2),
            nsteps=1,
            overlap=False,
            jit_seconds=0.0,
        )
        simulate_epoch(spec, queue=queue)
        events, _, _ = queue.sorted_events()
        # kernel + halo per rank, no jit opcode
        assert sorted(set(int(e["op"]) for e in events)) == [1, 2]


# -- 3. the production paths match the generator reference -----------------


def _traced(method, *, overlap, nranks=32, **settings_kw):
    """Run ``VirtualWorkflow(...).<method>()`` under a fresh tracer."""
    tracer = Tracer()
    workflow = VirtualWorkflow(
        _settings(**settings_kw), nranks=nranks, overlap=overlap,
        tracer=tracer,
    )
    return method(workflow), tracer


def _traced_run(*, jobs=1, **kw):
    return _traced(lambda wf: wf.run(jobs=jobs), **kw)


def _traced_serial(**kw):
    return _traced(run_serial, **kw)


def _assert_same_model(a, b):
    """Everything modeled must match; events_processed is excluded."""
    assert a.elapsed_seconds == b.elapsed_seconds
    np.testing.assert_array_equal(a.rank_finish_seconds, b.rank_finish_seconds)
    assert a.results == b.results
    assert a.collectives_per_rank == b.collectives_per_rank
    assert a.jit_seconds == b.jit_seconds


def _assert_matches_serial(*, overlap, nranks=32, **settings_kw):
    """``run(jobs=1)`` and ``run(jobs=4)`` reproduce the oracle."""
    serial, serial_tr = _traced_serial(
        overlap=overlap, nranks=nranks, **settings_kw
    )
    reference = _sim_spans(serial_tr)
    for jobs in (1, 4):
        result, tracer = _traced_run(
            overlap=overlap, jobs=jobs, nranks=nranks, **settings_kw
        )
        _assert_same_model(serial, result)
        assert _sim_spans(tracer) == reference, f"jobs={jobs}"


class TestEngineTiers:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_all_tiers_bit_identical(self, overlap):
        # the epoch path, inline and sharded, against the generators
        _assert_matches_serial(overlap=overlap)

    def test_tail_steps_and_no_output_epochs(self):
        # steps % plotgap != 0 (tail segment) and steps < plotgap (the
        # only output is the final one), with overlap on and off
        for overlap in (False, True):
            for steps, plotgap in ((5, 2), (3, 5)):
                _assert_matches_serial(
                    overlap=overlap, steps=steps, plotgap=plotgap
                )

    def test_overlap_join_holds_leaders_past_the_barrier(self):
        # plotgap=1 and a 128^3 block: each output's write outlasts the
        # next step, so after the next barrier every node leader resumes
        # at its write end (the Join) while its followers resume at the
        # barrier
        kw = dict(overlap=True, nranks=32, L=128, steps=4, plotgap=1)
        _, tracer = _traced_run(**kw)
        kernels = collections.defaultdict(list)
        for span in tracer.spans:
            if span.clock == SIM and span.name.startswith("gray_scott"):
                kernels[int(span.process.removeprefix("gcd"))].append(span.start)
        held = 0
        for step in range(kw["steps"]):
            released = {kernels[r][step] for r in range(32) if r % 8}
            assert len(released) == 1  # followers all resume at one instant
            held += sum(kernels[r][step] > min(released) for r in range(0, 32, 8))
        assert held >= 1
        _assert_matches_serial(**kw)

    def test_vector_events_counter_recorded(self):
        _, tracer = _traced_run(overlap=True)
        counter = tracer.metrics.counter(
            "sched.vector_events", engine="virtual[32]"
        )
        assert counter.value > 0

    def test_machine_extrapolates_past_frontier(self):
        from repro.cluster.frontier import FRONTIER

        nranks = FRONTIER.nodes * FRONTIER.node.gcds_per_node * 2
        wf = VirtualWorkflow(_settings(), nranks=nranks)
        assert wf.machine.nodes == FRONTIER.nodes * 2
        assert wf.machine.name.startswith(FRONTIER.name)


def _against_oracle(settings, nranks, overlap, contention, interval):
    """Compare ``run(jobs=1)`` and ``run(jobs=4)`` with the oracle."""

    def workflow(profiler):
        return VirtualWorkflow(
            settings, nranks=nranks, overlap=overlap,
            nic_contention=contention, tracer=Tracer(), profiler=profiler,
        )

    reference = workflow(oracle_engine.SimProfiler(interval))
    oracle = run_serial(reference)
    for jobs in (1, 4):
        mine = workflow(SimProfiler(interval))
        result = mine.run(jobs=jobs)
        where = f"{settings} jobs={jobs}"
        _assert_same_model(oracle, result)
        assert _sim_spans(mine.tracer) == _sim_spans(reference.tracer), where
        assert mine.profiler.stacks == reference.profiler.stacks, where
        assert (mine.profiler.samples_taken
                == reference.profiler.samples_taken), where
        assert mine.profiler.samples_taken > 0


class TestOracleMatrix:
    """Times, results, spans and folded profiles equal the oracle's.

    Rank counts: one rank, one node, a partial second node, 64 nodes;
    plotgap 1, a divisor of steps, and more than steps; jobs 1 and 4.
    """

    @pytest.mark.parametrize("nranks", [1, 8, 13, 512])
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("contention", [False, True])
    def test_matches_oracle_bitwise(self, nranks, overlap, contention):
        for steps, plotgap in ((4, 1), (4, 2), (3, 5)):
            _against_oracle(
                _settings(steps=steps, plotgap=plotgap), nranks, overlap,
                contention, interval=0.05,
            )

    @pytest.mark.parametrize("nranks", [8, 13])
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("contention", [False, True])
    def test_profile_samples_inside_steps(self, nranks, overlap, contention):
        # no JIT and fine intervals, so samples land in kernels, halos,
        # NIC queues and halo joins: a 128^3 block (comm > kernel, with
        # outputs) and a 1024^3 block (kernel > comm, no output)
        _against_oracle(
            _settings(L=128, steps=5, plotgap=2, backend="hip"), nranks,
            overlap, contention, interval=3e-5,
        )
        _against_oracle(
            _settings(L=1024, steps=5, plotgap=10, backend="hip"), nranks,
            overlap, contention, interval=1e-3,
        )

    def test_contention_across_block_sizes(self):
        # 128^3 (comm > kernel: the ports stay busy and ranks tie) and
        # 256^3 (kernel > comm): the queue's tie order and the
        # barrier's release order decide which ranks share a port
        for length in (128, 256):
            for overlap in (False, True):
                settings = _settings(L=length)
                oracle_tr, tracer = Tracer(), Tracer()
                oracle = run_serial(VirtualWorkflow(
                    settings, nranks=64, overlap=overlap,
                    nic_contention=True, tracer=oracle_tr,
                ))
                result = VirtualWorkflow(
                    settings, nranks=64, overlap=overlap,
                    nic_contention=True, tracer=tracer,
                ).run(jobs=4)
                _assert_same_model(oracle, result)
                assert _sim_spans(tracer) == _sim_spans(oracle_tr)


class TestShardedVector:
    def test_jobs_invariant_at_4096(self):
        serial, serial_tr = _traced_run(overlap=True, nranks=4096,
                                        steps=4, plotgap=2)
        sharded, sharded_tr = _traced_run(overlap=True, jobs=8,
                                          nranks=4096, steps=4, plotgap=2)
        _assert_same_model(serial, sharded)
        assert _sim_spans(sharded_tr) == _sim_spans(serial_tr)

    def test_generator_and_vector_shards_agree(self):
        # 256 ranks = 32 nodes, so jobs=4 really splits into four shards
        _assert_matches_serial(overlap=True, nranks=256)

    @pytest.mark.slow
    def test_jobs_invariant_at_262144(self):
        """jobs=1 vs jobs=8 at 262,144 ranks.

        Three outputs, so two epochs carry writes and the overlapped
        leaders Join them at the next barrier across all eight shards.
        Untraced (the span multiset equality is pinned at 4,096 above)
        and compared on modeled outputs only — the par.shm transport
        counters legitimately differ with jobs.
        """
        nranks = 262_144
        serial = VirtualWorkflow(
            _settings(steps=6, plotgap=2), nranks=nranks, overlap=True,
        ).run()
        sharded = VirtualWorkflow(
            _settings(steps=6, plotgap=2), nranks=nranks, overlap=True,
        ).run(jobs=8)
        _assert_same_model(serial, sharded)

    @pytest.mark.slow
    def test_262144_ranks_within_rss_ceiling(self):
        """ISSUE acceptance: a 262,144-rank run stays under 2 GiB RSS.

        Run in a subprocess so the measured peak is this run's, not the
        test session's accumulated allocations.
        """
        import subprocess
        import sys

        script = (
            "import resource, sys\n"
            "from repro.core.settings import GrayScottSettings\n"
            "from repro.core.virtual import VirtualWorkflow\n"
            "s = GrayScottSettings(L=64, steps=2, plotgap=2,"
            " backend='julia')\n"
            "r = VirtualWorkflow(s, nranks=262144, overlap=True).run()\n"
            "assert len(set(r.results)) == 1\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        peak_kib = int(proc.stdout.strip().splitlines()[-1])
        assert peak_kib < 2 * 1024 * 1024, (
            f"peak RSS {peak_kib / 1024:.0f} MiB breaches the 2 GiB ceiling"
        )
