"""Virtual SPMD oracle: collectives, p2p, op logs, thousands of ranks."""

import pytest

from repro.observe.export import to_chrome_trace, validate_chrome_trace
from repro.observe.trace import Tracer
from repro.util.errors import SchedError
from tests.oracles.engine import Engine
from tests.oracles.vspmd import VirtualJob, record_ops, run_virtual_spmd


class TestCollectives:
    def test_barrier_synchronizes_ranks(self):
        def program(comm):
            yield from comm.compute(float(comm.rank + 1))
            yield from comm.barrier()

        result = run_virtual_spmd(program, 4)
        # all ranks leave the barrier at the slowest arrival (rank 3: 4 s)
        assert result.rank_finish_seconds == [4.0, 4.0, 4.0, 4.0]

    def test_allreduce_sum(self):
        def program(comm):
            total = yield from comm.allreduce(comm.rank, op="sum")
            return total

        result = run_virtual_spmd(program, 8)
        assert result.results == [sum(range(8))] * 8

    @pytest.mark.parametrize("op,expected", [
        ("min", 0), ("max", 7), ("sum", 28),
    ])
    def test_reduce_ops(self, op, expected):
        def program(comm):
            value = yield from comm.allreduce(comm.rank, op=op)
            return value

        assert run_virtual_spmd(program, 8).results == [expected] * 8

    def test_unknown_reduce_op_rejected(self):
        def program(comm):
            yield from comm.allreduce(1, op="xor")

        with pytest.raises(SchedError, match="xor"):
            run_virtual_spmd(program, 2)

    def test_reduction_order_is_rank_order(self):
        # floating-point sum must not depend on virtual arrival order
        def program(comm):
            yield from comm.compute(float(7 - comm.rank))  # reverse arrivals
            total = yield from comm.allreduce(0.1 * (comm.rank + 1), op="sum")
            return total

        a = run_virtual_spmd(program, 8).results[0]
        expected = sum(0.1 * (r + 1) for r in range(8))
        assert a == expected  # bitwise: same order as the plain loop


class TestPointToPoint:
    def test_ring_exchange(self):
        def program(comm):
            comm.send((comm.rank + 1) % comm.size, payload=comm.rank)
            value = yield from comm.recv((comm.rank - 1) % comm.size)
            return value

        result = run_virtual_spmd(program, 4)
        assert result.results == [3, 0, 1, 2]

    def test_p2p_cost_model_delays_delivery(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, nbytes=100.0, payload="hi")
            else:
                got = yield from comm.recv(0)
                return got

        result = run_virtual_spmd(
            program, 2, p2p_seconds=lambda s, d, n: n / 10.0
        )
        assert result.results[1] == "hi"
        assert result.rank_finish_seconds[1] == 10.0

    def test_recv_before_send_blocks_until_arrival(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(5.0)
                comm.send(1, payload="late")
            else:
                got = yield from comm.recv(0)
                return got

        result = run_virtual_spmd(program, 2)
        assert result.results[1] == "late"
        assert result.rank_finish_seconds[1] == 5.0

    def test_missing_send_is_virtual_deadlock(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.recv(0)

        with pytest.raises(SchedError, match="stuck"):
            run_virtual_spmd(program, 2)

    def test_out_of_range_peer_rejected(self):
        def program(comm):
            comm.send(99)
            yield from comm.barrier()

        with pytest.raises(SchedError, match="99"):
            run_virtual_spmd(program, 2)


class TestOpLog:
    def test_ops_logged_in_program_order(self):
        def program(comm):
            yield from comm.barrier()
            comm.send((comm.rank + 1) % comm.size)
            _ = yield from comm.recv((comm.rank - 1) % comm.size)
            _ = yield from comm.allreduce(1, op="max")

        result = run_virtual_spmd(program, 3)
        kinds = [op.kind for op in result.job.op_log[0]]
        assert kinds == ["barrier", "send", "recv", "allreduce"]

    def test_record_ops_matches_engine_log(self):
        def program(comm):
            yield from comm.compute(1.0)
            yield from comm.barrier()
            _ = yield from comm.allreduce(comm.rank, op="sum")

        recorded = record_ops(program, 3)
        engine_log = run_virtual_spmd(program, 3).job.op_log
        assert recorded == engine_log

    def test_job_validates_rank_range(self):
        job = VirtualJob(2)
        with pytest.raises(SchedError):
            job.comm(2)
        with pytest.raises(SchedError):
            VirtualJob(0)


class TestScale:
    def test_4096_ranks_no_threads(self):
        """The ISSUE acceptance case: thousands of modeled ranks, one
        thread, a valid Perfetto artifact at the end."""
        tracer = Tracer()
        engine = Engine(name="big", tracer=tracer)

        def program(comm):
            for _ in range(2):
                yield from comm.compute(0.111, label="kernel")
                yield from comm.barrier()
            total = yield from comm.allreduce(1, op="sum")
            return total

        result = run_virtual_spmd(program, 4096, engine=engine)
        assert result.results == [4096] * 4096
        assert result.elapsed_seconds == pytest.approx(0.222)
        obj = to_chrome_trace(tracer)
        validate_chrome_trace(obj)
        # one span per compute: 4096 ranks x 2 steps, all on the SIM clock
        names = [
            e for e in obj["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "kernel"
        ]
        assert len(names) == 4096 * 2
