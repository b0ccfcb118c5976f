"""Worker pool: futures, ordered merges, chunking, errors, trace capture."""

import os

import numpy as np
import pytest

from repro import observe
from repro.par import WorkerPool, default_chunksize, resolve_jobs, run_tasks
from repro.util.errors import ParError


def _square(x):
    return x * x


def _big_array(n):
    return np.full(32_768, float(n))


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom at three")
    return x


def _pid_task(_):
    return os.getpid()


def _fail(x):
    raise ValueError(f"boom on {x}")


def _array(n):
    return np.full((n,), float(n), order="F")


class TestWorkerPool:
    def test_submit_resolves_future(self):
        with WorkerPool(_square, workers=2) as pool:
            assert pool.submit(7).result(timeout=30) == 49

    def test_many_tasks_all_complete(self):
        with WorkerPool(_square, workers=2) as pool:
            futures = [pool.submit(i) for i in range(20)]
            assert [f.result(timeout=30) for f in futures] == [
                i * i for i in range(20)
            ]
            assert pool.submitted == 20
            assert pool.completed == 20
            assert pool.in_flight == 0

    def test_numpy_results_cross_the_boundary(self):
        with WorkerPool(_array, workers=2) as pool:
            out = pool.submit(64).result(timeout=30)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, np.full((64,), 64.0))

    def test_worker_exception_fails_only_that_future(self):
        with WorkerPool(_fail, workers=1) as pool:
            future = pool.submit(3)
            with pytest.raises(ParError, match="boom on 3"):
                future.result(timeout=30)

    def test_submit_after_close_raises(self):
        pool = WorkerPool(_square, workers=1)
        pool.close()
        with pytest.raises(ParError, match="closed"):
            pool.submit(1)

    def test_close_is_idempotent(self):
        pool = WorkerPool(_square, workers=1)
        pool.close()
        pool.close()  # second close is a no-op, not an error

    def test_workers_validated(self):
        with pytest.raises(ParError, match="worker"):
            WorkerPool(_square, workers=0)


class TestResolveJobs:
    def test_defaults(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ParError):
            resolve_jobs(-2)


class TestChunksize:
    def test_four_chunks_per_worker(self):
        assert default_chunksize(64, 4) == 4
        assert default_chunksize(3, 4) == 1
        assert default_chunksize(100, 3) == 9

    def test_never_zero(self):
        assert default_chunksize(0, 8) == 1


class TestRunTasks:
    def test_serial_matches_comprehension(self):
        assert run_tasks(_square, range(7), jobs=1) == [x * x for x in range(7)]

    def test_parallel_order_preserved(self):
        got = run_tasks(_square, range(23), jobs=3, chunksize=2)
        assert got == [x * x for x in range(23)]

    def test_single_task_runs_inline(self):
        assert run_tasks(_pid_task, [0], jobs=4) == [os.getpid()]

    def test_parallel_runs_in_other_processes(self):
        pids = set(run_tasks(_pid_task, range(8), jobs=2, chunksize=1))
        assert os.getpid() not in pids

    def test_large_arrays_roundtrip_via_shm(self):
        got = run_tasks(_big_array, range(6), jobs=2, chunksize=1)
        for n, arr in enumerate(got):
            np.testing.assert_array_equal(arr, np.full(32_768, float(n)))

    def test_worker_exception_surfaces_with_traceback(self):
        with pytest.raises(ParError, match=r"(?s)task 3 raised.*boom at three"):
            run_tasks(_fail_on_three, range(6), jobs=2, chunksize=1)

    def test_closure_ok_under_fork(self):
        offset = 10
        got = run_tasks(lambda x: x + offset, range(5), jobs=2)
        assert got == [10, 11, 12, 13, 14]

    def test_spawn_context_with_picklable_fn(self):
        got = run_tasks(_square, range(5), jobs=2, context="spawn")
        assert got == [x * x for x in range(5)]


class TestTraceCapture:
    def test_worker_spans_merge_under_pid_lanes(self):
        with observe.session() as tracer:
            run_tasks(_square, range(6), jobs=2, chunksize=1)
        names = {s.name for s in tracer.spans}
        assert "par.run_tasks" in names
        assert {f"task[{i}]" for i in range(6)} <= names
        procs = {s.process for s in tracer.spans if s.name.startswith("task[")}
        assert procs <= {"par.w0.pool", "par.w1.pool"}

    def test_untraced_run_adds_no_spans(self):
        run_tasks(_square, range(6), jobs=2)
        assert observe.active() is None
