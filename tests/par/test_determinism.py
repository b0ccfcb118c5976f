"""The determinism contract: --jobs N output is bit-identical to --jobs 1.

Three fan-out hot paths, each compared serial vs. parallel on every
payload field plus (for the virtual runs) the SIM-clock span multiset
and the metrics registry. Excluded by contract (docs/PARALLEL.md): the
``sched.events_processed`` gauge / ``events_processed`` field, and
WALL-clock pool-harness lanes.
"""

import numpy as np
import pytest

from repro.observe.trace import SIM, Tracer


def _sim_multiset(tracer):
    return sorted(
        (s.name, s.cat, s.process, s.thread, s.start, s.seconds, s.ph,
         tuple(sorted(dict(s.args).items())))
        for s in tracer.spans if s.clock == SIM
    )


def _metrics_items(tracer):
    from repro.par.tracemerge import snapshot_metrics

    return sorted(
        (e["name"], tuple(sorted(e["labels"].items())), e["kind"],
         e.get("value"), tuple(e.get("samples", ())))
        for e in snapshot_metrics(tracer.metrics)
        if e["name"] != "sched.events_processed"
    )


class TestLadderIdentity:
    def test_fig6_points_identical(self):
        from repro.bench import fig6

        ranks = (1, 8, 64, 512)
        serial = fig6.run_frontier(steps=5, ranks=ranks)
        par = fig6.run_frontier(steps=5, ranks=ranks, jobs=4)
        assert len(serial) == len(par)
        for a, b in zip(serial, par):
            assert a.nranks == b.nranks
            assert a.cart_dims == b.cart_dims
            assert np.array_equal(a.rank_seconds, b.rank_seconds)
            assert a.kernel_seconds_per_step == b.kernel_seconds_per_step
            assert a.comm_seconds_mean == b.comm_seconds_mean

    def test_fig8_points_identical(self):
        from repro.bench import fig8

        serial = fig8.run_frontier(ranks=(8, 64, 512))
        par = fig8.run_frontier(ranks=(8, 64, 512), jobs=4)
        for a, b in zip(serial, par):
            assert a.__class__ is b.__class__
            for name, value in vars(a).items():
                other = vars(b)[name]
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, other), name
                else:
                    assert value == other, name


class TestCacheSweepIdentity:
    def test_sweep_grid_identical(self):
        from repro.gpu.cache import SweepCase, sweep_grid
        from repro.gpu.proxy import kernel_access_pattern

        loads, stores = kernel_access_pattern(2)
        cases = [
            SweepCase((L, L, L), 8, loads, stores, capacity_bytes=cap)
            for L in (12, 20, 28)
            for cap in (1 << 16, 1 << 20)
        ]
        serial = sweep_grid(cases)
        par = sweep_grid(cases, jobs=4)
        for a, b in zip(serial, par):
            assert a.case == b.case
            assert a.estimate == b.estimate
            assert (a.hits, a.misses, a.load_misses) == (
                b.hits, b.misses, b.load_misses
            )


class TestVirtualIdentity:
    # nic_contention takes the per-rank generator path at any jobs
    @pytest.mark.parametrize(
        "overlap, nic_contention",
        [(False, False), (True, False), (True, True)],
        ids=["False", "True", "nic_contention"],
    )
    def test_vspmd_result_spans_metrics_identical(self, overlap,
                                                  nic_contention):
        from repro.core.settings import GrayScottSettings
        from repro.core.virtual import VirtualWorkflow

        settings = GrayScottSettings(L=16, steps=6, plotgap=2, backend="julia")
        t1, t4 = Tracer(), Tracer()
        r1 = VirtualWorkflow(
            settings, nranks=64, overlap=overlap,
            nic_contention=nic_contention, tracer=t1,
        ).run()
        r4 = VirtualWorkflow(
            settings, nranks=64, overlap=overlap,
            nic_contention=nic_contention, tracer=t4,
        ).run(jobs=4)
        assert r1.elapsed_seconds == r4.elapsed_seconds
        assert np.array_equal(r1.rank_finish_seconds, r4.rank_finish_seconds)
        assert r1.results == r4.results
        assert r1.comm_seconds_mean == r4.comm_seconds_mean
        assert r1.kernel_seconds_per_step == r4.kernel_seconds_per_step
        assert r1.jit_seconds == r4.jit_seconds
        assert r1.collectives_per_rank == r4.collectives_per_rank
        assert r1.output_steps == r4.output_steps
        assert _sim_multiset(t1) == _sim_multiset(t4)
        assert _metrics_items(t1) == _metrics_items(t4)

    def test_indivisible_steps_identical(self):
        from repro.core.settings import GrayScottSettings
        from repro.core.virtual import VirtualWorkflow

        settings = GrayScottSettings(L=16, steps=5, plotgap=2, backend="julia")
        r1 = VirtualWorkflow(settings, nranks=32).run()
        r4 = VirtualWorkflow(settings, nranks=32).run(jobs=4)
        assert r1.elapsed_seconds == r4.elapsed_seconds
        assert r1.results == r4.results

    @pytest.mark.slow
    def test_paper_scale_4096_ranks_identical(self):
        from repro.core.settings import GrayScottSettings
        from repro.core.virtual import VirtualWorkflow

        settings = GrayScottSettings(
            L=64, steps=10, plotgap=5, backend="julia"
        )
        t1, t4 = Tracer(), Tracer()
        r1 = VirtualWorkflow(
            settings, nranks=4096, overlap=True, tracer=t1
        ).run()
        r4 = VirtualWorkflow(
            settings, nranks=4096, overlap=True, tracer=t4
        ).run(jobs=4)
        assert r1.elapsed_seconds == r4.elapsed_seconds
        assert np.array_equal(r1.rank_finish_seconds, r4.rank_finish_seconds)
        assert r1.results == r4.results
        assert _sim_multiset(t1) == _sim_multiset(t4)
        assert _metrics_items(t1) == _metrics_items(t4)
