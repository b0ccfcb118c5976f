"""mpiP-style communication statistics."""

import numpy as np

from repro.mpi.executor import run_spmd
from repro.mpi.stats import CommStats, CommTotals


def _run_with_stats(fn, nranks, **kwargs):
    job_out = {}
    results = run_spmd(
        fn, nranks, job_out=job_out, collect_stats=True, timeout=60, **kwargs
    )
    return results, job_out["job"].stats


class TestP2pAccounting:
    def test_exact_message_and_byte_counts(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), 1)  # 800 B
                comm.send(np.zeros(50), 1)  # 400 B
            elif comm.rank == 1:
                comm.recv(0)
                comm.recv(0)
            return True

        _, stats = _run_with_stats(body, 2)
        pair = stats.pair(0, 1)
        assert pair.messages == 2
        assert pair.bytes == 1200
        assert stats.pair(1, 0).messages == 0
        totals = stats.p2p_totals()
        assert totals.messages == 2 and totals.bytes == 1200

    def test_ring_pair_counts(self):
        def body(comm):
            dest = (comm.rank + 1) % comm.size
            comm.send(np.zeros(8), dest, tag=1)
            comm.recv((comm.rank - 1) % comm.size, tag=1)
            return True

        _, stats = _run_with_stats(body, 4)
        # a ring: exactly one message along each (r, r+1) edge
        for r in range(4):
            assert stats.pair(r, (r + 1) % 4).messages == 1
        assert stats.p2p_totals().messages == 4

    def test_halo_exchange_volume_matches_analysis(self):
        """Measured exchange traffic equals the Section 3.3 face math."""
        from repro.core.domain import LocalDomain
        from repro.core.exchange import exchange_ghosts, exchange_plan

        global_shape = (8, 8, 8)
        dims = (2, 2, 2)

        def body(comm):
            cart = comm.create_cart(dims, periods=(True,) * 3)
            domain = LocalDomain.for_coords(global_shape, dims, cart.coords())
            field = domain.allocate_field()
            exchange_ghosts(cart, field, exchange_plan(domain, cart.periods))
            return True

        _, stats = _run_with_stats(body, 8)
        totals = stats.p2p_totals()
        # 8 ranks x 6 faces, one message each
        assert totals.messages == 48
        # ghosted local block is 6^3; faces span the full ghosted extent
        face_bytes = 6 * 6 * 8
        assert totals.bytes == 48 * face_bytes


class TestCollectiveAccounting:
    def test_bcast_internal_messages(self):
        def body(comm):
            return comm.bcast("x" if comm.rank == 0 else None, root=0)

        _, stats = _run_with_stats(body, 8)
        # binomial tree on 8 ranks: 7 internal messages
        assert stats.collective("bcast").messages == 7

    def test_allreduce_is_reduce_plus_bcast(self):
        def body(comm):
            return comm.allreduce(comm.rank, "sum")

        _, stats = _run_with_stats(body, 8)
        assert stats.collective("reduce").messages == 7
        assert stats.collective("bcast").messages == 7

    def test_render(self):
        def body(comm):
            comm.send(np.zeros(4), (comm.rank + 1) % comm.size, tag=0)
            comm.recv((comm.rank - 1) % comm.size, tag=0)
            comm.barrier()
            return True

        _, stats = _run_with_stats(body, 4)
        text = stats.render()
        assert "point-to-point" in text
        assert "barrier" in text

    def test_collectives_stay_out_of_p2p_totals(self):
        def body(comm):
            comm.allreduce(comm.rank, "sum")
            return comm.bcast(None, root=0)

        _, stats = _run_with_stats(body, 8)
        assert stats.p2p_totals() == CommTotals(messages=0, bytes=0)
        by_name = [stats.collective(name) for name in ("reduce", "bcast")]
        totals = stats.coll_totals()
        # allreduce = reduce + bcast, then one more bcast: 7 + 14 tree edges
        assert totals.messages == sum(t.messages for t in by_name) == 21
        assert totals.bytes == sum(t.bytes for t in by_name) > 0

    def test_unrecorded_counters_read_zero(self):
        stats = CommStats(4)
        zero = CommTotals(messages=0, bytes=0)
        assert stats.pair(0, 3) == zero
        assert stats.collective("scan") == zero
        assert stats.p2p_totals() == zero
        assert stats.coll_totals() == zero

    def test_stats_off_by_default(self):
        job_out = {}
        run_spmd(lambda comm: comm.barrier(), 2, job_out=job_out, timeout=30)
        assert job_out["job"].stats is None


class TestMetricsExport:
    def test_to_metrics(self):
        from repro.observe import MetricsRegistry

        def body(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), 1)  # 80 B
            elif comm.rank == 1:
                comm.recv(0)
            comm.barrier()
            return True

        _, stats = _run_with_stats(body, 2)
        reg = MetricsRegistry()
        stats.to_metrics(reg)
        assert reg.counter_value("mpi.p2p.pair.messages", src=0, dst=1) == 1
        assert reg.counter_value("mpi.p2p.pair.bytes", src=0, dst=1) == 80
        assert reg.counter_value("mpi.coll.messages", op="barrier") > 0
        # additive: a second export doubles everything
        stats.to_metrics(reg)
        assert reg.counter_value("mpi.p2p.pair.bytes", src=0, dst=1) == 160

    def test_pair_bytes_match_traced_spans(self):
        """The per-pair byte counts equal the p2p span payloads collected
        by the tracer on an 8-rank ghost exchange."""
        from repro.core.domain import LocalDomain
        from repro.core.exchange import exchange_ghosts, exchange_plan
        from repro.observe import trace

        global_shape = (8, 8, 8)
        dims = (2, 2, 2)

        def body(comm):
            cart = comm.create_cart(dims, periods=(True,) * 3)
            domain = LocalDomain.for_coords(global_shape, dims, cart.coords())
            field = domain.allocate_field()
            exchange_ghosts(cart, field, exchange_plan(domain, cart.periods))
            return True

        with trace.session() as tracer:
            _, stats = _run_with_stats(body, 8)
            sends = tracer.select(cat="mpi", name="p2p.send")

        traced = np.zeros((8, 8), dtype=np.int64)
        for span in sends:
            traced[span.arg("src"), span.arg("dst")] += span.arg("bytes")
        counted = np.array(
            [[stats.pair(src, dst).bytes for dst in range(8)] for src in range(8)]
        )
        np.testing.assert_array_equal(counted, traced)
        assert stats.p2p_totals().bytes == 48 * 6 * 6 * 8  # the Section 3.3 face math
