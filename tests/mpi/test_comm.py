import numpy as np
import pytest

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, PROC_NULL, Job
from repro.mpi.executor import run_spmd
from repro.util.errors import CommAbort, MPIError, TruncationError


class TestJob:
    def test_needs_ranks(self):
        with pytest.raises(MPIError):
            Job(0)

    def test_comm_world(self):
        job = Job(4)
        comm = job.comm_world(2)
        assert comm.rank == 2 and comm.size == 4

    def test_bad_rank(self):
        with pytest.raises(MPIError):
            Job(2).comm_world(5)


class TestPointToPoint:
    def test_send_recv_object(self):
        def body(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            payload, status = comm.recv(source=0, tag=11)
            assert status.source == 0 and status.tag == 11
            return payload

        results = run_spmd(body, 2, timeout=10)
        assert results[1] == {"a": 7}

    def test_send_recv_array_copies(self):
        def body(comm):
            if comm.rank == 0:
                data = np.arange(5.0)
                comm.send(data, 1)
                data[:] = -1  # must not affect the receiver
                return None
            payload, _ = comm.recv(0)
            return payload.sum()

        assert run_spmd(body, 2, timeout=10)[1] == 10.0

    def test_tag_matching(self):
        def body(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=1)
                comm.send("second", 1, tag=2)
                return None
            second, _ = comm.recv(0, tag=2)
            first, _ = comm.recv(0, tag=1)
            return (first, second)

        assert run_spmd(body, 2, timeout=10)[1] == ("first", "second")

    def test_any_source_any_tag(self):
        def body(comm):
            if comm.rank != 0:
                comm.send(comm.rank, 0, tag=comm.rank)
                return None
            got = sorted(comm.recv(ANY_SOURCE, ANY_TAG)[0] for _ in range(3))
            return got

        assert run_spmd(body, 4, timeout=10)[0] == [1, 2, 3]

    def test_fifo_per_pair(self):
        def body(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, 1, tag=5)
                return None
            return [comm.recv(0, 5)[0] for i in range(10)]

        assert run_spmd(body, 2, timeout=10)[1] == list(range(10))

    def test_proc_null_noops(self):
        def body(comm):
            comm.send("x", PROC_NULL)  # no-op
            req = comm.irecv(PROC_NULL)
            assert req.done
            payload, status = comm.sendrecv("y", PROC_NULL, PROC_NULL)
            assert payload is None and status is None
            return True

        assert all(run_spmd(body, 2, timeout=10))

    def test_invalid_peer(self):
        def body(comm):
            comm.send("x", 99)

        with pytest.raises(MPIError):
            run_spmd(body, 2, timeout=5)

    def test_self_send(self):
        def body(comm):
            comm.send("me", comm.rank, tag=3)
            return comm.recv(comm.rank, 3)[0]

        assert run_spmd(body, 2, timeout=10) == ["me", "me"]


class TestNonblocking:
    def test_isend_irecv_wait(self):
        def body(comm):
            if comm.rank == 0:
                req = comm.isend(np.ones(4), 1)
                req.wait()
                return None
            req = comm.irecv(0)
            msg = req.wait(5)
            return msg.payload.sum()

        assert run_spmd(body, 2, timeout=10)[1] == 4.0

    def test_test_polls(self):
        def body(comm):
            if comm.rank == 0:
                req = comm.irecv(1)
                flag, _ = req.test()
                comm.send("go", 1)
                msg = req.wait(5)
                return msg.payload
            comm.recv(0)
            comm.send("done", 0)
            return None

        assert run_spmd(body, 2, timeout=10)[0] == "done"

    def test_wait_all(self):
        from repro.mpi.request import Request

        def body(comm):
            if comm.rank == 0:
                reqs = [comm.isend(i, 1, tag=i) for i in range(4)]
                Request.wait_all(reqs)
                return None
            reqs = [comm.irecv(0, tag=i) for i in range(4)]
            return [m.payload for m in Request.wait_all(reqs, timeout=5)]

        assert run_spmd(body, 2, timeout=10)[1] == [0, 1, 2, 3]


class TestRecvInto:
    def test_fills_buffer(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(6, dtype=np.float64), 1)
                return None
            buf = np.zeros(6)
            status = comm.recv_into(buf, 0)
            assert status.count_bytes == 48
            return buf.sum()

        assert run_spmd(body, 2, timeout=10)[1] == 15.0

    def test_truncation_error(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(10, dtype=np.float64), 1)
                return None
            comm.recv_into(np.zeros(4), 0)

        with pytest.raises(TruncationError):
            run_spmd(body, 2, timeout=5)

    def test_object_message_rejected(self):
        def body(comm):
            if comm.rank == 0:
                comm.send({"not": "array"}, 1)
                return None
            comm.recv_into(np.zeros(4), 0)

        with pytest.raises(MPIError):
            run_spmd(body, 2, timeout=5)


class TestAbort:
    def test_error_propagates_and_unblocks(self):
        def body(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            comm.recv(0)  # would deadlock without abort

        with pytest.raises(ValueError, match="boom"):
            run_spmd(body, 2, timeout=30)

    def test_timeout_detected_as_deadlock(self):
        def body(comm):
            if comm.rank == 1:
                comm.recv(0, timeout=0.2)  # nobody sends

        with pytest.raises(MPIError, match="timed out"):
            run_spmd(body, 2, timeout=5)

    def test_operations_after_abort_raise(self):
        job = Job(2)
        comm = job.comm_world(0)
        job.abort(RuntimeError("dead"))
        with pytest.raises(CommAbort):
            comm.send("x", 1)


class TestCommDup:
    def test_dup_isolates_message_space(self):
        def body(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.send("world", 1, tag=1)
                dup.send("dup", 1, tag=1)
                return None
            # receive from the dup first: must NOT match the world message
            dup_msg, _ = dup.recv(0, tag=1)
            world_msg, _ = comm.recv(0, tag=1)
            return (dup_msg, world_msg)

        assert run_spmd(body, 2, timeout=10)[1] == ("dup", "world")
