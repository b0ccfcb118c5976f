"""The package's one worker-process pool, and ordered fan-out on it.

:class:`WorkerPool` is ``workers`` persistent processes evaluating one
function behind a ``submit() -> Future`` interface; payloads and
results cross through :mod:`repro.par.shm`, so large NumPy arrays ride
shared-memory segments instead of the pipes. :func:`run_tasks` and
:class:`repro.serve.SimService`'s ``process`` backend both use it.

:func:`run_tasks` evaluates ``fn`` over a task list on ``jobs`` worker
processes and returns the results **ordered by task index** — never by
completion order — so every caller's downstream reduction
(rank-ordered sums, golden-file renders, trace multisets) is
bit-identical to a serial run. ``jobs=1`` is a plain list
comprehension in the calling process. The task list is cut into
chunks, one ``submit`` each, and idle workers pull the next chunk, so
a straggler config (a 4,096-rank ladder point next to a 1-rank point)
does not serialize the sweep.

Workers default to the ``fork`` start method where available (task
functions may then be closures). "Spawn-safe" means the pool itself
never requires fork: pass ``context="spawn"`` and any *picklable*
task function — every hot-path task function in this package is
module-level or a bound method of a picklable model — and the pool
behaves identically.

When an :mod:`repro.observe` tracer is active in the parent, each
chunk records into a private tracer in its worker (one wall span per
task) and ships the capture back with its results; the parent merges
the captures in chunk order: worker wall lanes land under a
``par.w<N>`` PID prefix, modeled SIM spans merge verbatim, metrics
fold with counter/gauge/histogram semantics. See ``docs/PARALLEL.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback
from contextlib import nullcontext
from functools import partial
from typing import Callable, Iterable

from repro.observe import trace as observe
from repro.par import shm, tracemerge
from repro.util.errors import NativeToolchainError, ParError

#: index of the pool worker this process is; None outside a pool
_WORKER: int | None = None


def current_worker() -> int | None:
    """The index of the :class:`WorkerPool` worker running the caller."""
    return _WORKER


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``0`` means every core, ``None`` 1."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ParError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_chunksize(ntasks: int, jobs: int) -> int:
    """~4 chunks per worker: fine enough to steal, coarse enough to amortize."""
    return max(1, -(-ntasks // (jobs * 4)))


def _worker(worker_id, fn, jit_cache, task_q, results, results_lock) -> None:
    global _WORKER
    _WORKER = worker_id
    # A forked worker inherits the parent's installed tracer object;
    # recording into that copy would be silently discarded.
    observe.deactivate()
    if jit_cache is not None:
        # Warm-start the tracing JIT from the parent's persistent cache.
        # The path is passed explicitly because a spawn-context worker
        # does not inherit the parent's configured module globals.
        from repro.gpu import jitcache

        jitcache.warm_start(jit_cache)
    while (item := task_q.get()) is not None:
        task_id, payload = item
        try:
            blob = pickle.dumps((task_id, True, shm.encode(fn(shm.decode(payload)))))
        except NativeToolchainError as exc:  # the host's fault, not the task's
            blob = pickle.dumps((task_id, False, exc))
        except Exception:
            blob = pickle.dumps((task_id, False, traceback.format_exc()))
        # sent synchronously, so a task that kills its worker cannot leave
        # the results lock held (a queue's feeder thread could)
        with results_lock:
            results.send_bytes(blob)


class WorkerPool:
    """``workers`` persistent processes evaluating one function.

    >>> pool = WorkerPool(execute_and_render, workers=4)
    >>> future = pool.submit(spec)     # concurrent.futures.Future
    >>> result = future.result()
    >>> pool.close()

    A collector thread resolves the futures. A task whose function
    raised fails with :class:`ParError` carrying the worker's traceback
    (a :class:`NativeToolchainError` fails as itself).
    A worker that dies with tasks in flight fails every pending future
    once and is replaced. Failing or closing over a pending task
    discards its payload's shared-memory segments.
    """

    def __init__(
        self,
        fn: Callable,
        *,
        workers: int = 2,
        context: str | None = None,
        jit_cache: str | None = None,
    ):
        if workers < 1:
            raise ParError(f"worker pool needs >= 1 worker, got {workers}")
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = "fork" if "fork" in methods else methods[0]
        if jit_cache is None:
            from repro.gpu import jitcache

            jit_cache = jitcache.configured_path()
        self._ctx = multiprocessing.get_context(context)
        self._args = (fn, jit_cache)
        self._task_q = self._ctx.Queue()
        self._results, self._results_w = self._ctx.Pipe(duplex=False)
        self._results_lock = self._ctx.Lock()
        self._procs = [self._start(w) for w in range(workers)]
        self._lock = threading.Lock()
        #: task id -> (concurrent.futures.Future, encoded payload)
        self._pending: dict[int, tuple] = {}
        self._next_id = 0
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self._collector = threading.Thread(
            target=self._collect, name="par-pool-collector", daemon=True
        )
        self._collector.start()

    def _start(self, worker_id: int):
        proc = self._ctx.Process(target=_worker, daemon=True, args=(
            worker_id, *self._args, self._task_q, self._results_w, self._results_lock,
        ))
        proc.start()
        return proc

    def submit(self, payload):
        """Queue one task; the returned ``concurrent.futures.Future``
        resolves from the collector thread."""
        from concurrent.futures import Future  # it imports logging: on use

        future = Future()
        with self._lock:
            if self._closed:
                raise ParError("submit() on a closed worker pool")
            encoded = shm.encode(payload)
            task_id = self._next_id
            self._next_id += 1
            self._pending[task_id] = (future, encoded)
            self.submitted += 1
        self._task_q.put((task_id, encoded))
        return future

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    def _collect(self) -> None:
        while True:
            if not self._results.poll(0.5):
                self._check_workers()
                continue
            msg = pickle.loads(self._results.recv_bytes())
            if msg is None:
                return
            task_id, ok, payload = msg
            with self._lock:
                future, _ = self._pending.pop(task_id, (None, None))
            if future is None or future.cancelled():  # failed or cancelled
                if ok:
                    shm.discard(payload)
                continue
            self.completed += 1
            if ok:
                future.set_result(shm.decode(payload))
            else:
                future.set_exception(payload if isinstance(payload, Exception) else ParError(
                    f"task failed in a pool worker:\n{payload.rstrip()}"
                ))

    def _check_workers(self) -> None:
        with self._lock:
            if self._closed or not self._pending:
                return
            dead = [(w, p.exitcode) for w, p in enumerate(self._procs)
                    if p.exitcode is not None]
            for w, _ in dead:
                self._procs[w] = self._start(w)
        if dead:
            self._fail_pending(ParError("; ".join(
                f"pool worker {w} died with exit code {code}" for w, code in dead
            ) + " with tasks in flight"))

    def _fail_pending(self, error: ParError) -> None:
        """Fail every pending future once and discard its payload."""
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future, encoded in pending:
            shm.discard(encoded)
            if not future.cancelled():
                future.set_exception(error)

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop accepting work, fail what is pending, join everything
        (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._fail_pending(ParError("worker pool closed"))
        for _ in self._procs:
            self._task_q.put(None)
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(1.0)
        # a worker killed mid-send holds the lock for good; the daemon
        # collector is then left polling
        if self._results_lock.acquire(timeout=1.0):
            self._results_w.send_bytes(pickle.dumps(None))
            self._results_lock.release()
            self._collector.join(timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _run_chunk(fn, epoch, chunk) -> tuple:
    """Run one chunk of ``(index, task)`` pairs in a pool worker.

    Returns the worker's index, one ``(index, ok, value or traceback)``
    per task, and — when the parent traces (``epoch`` is its tracer's
    wall epoch) — the capture of a private tracer that recorded one
    wall span per task.
    """
    tracer = None
    if epoch is not None:
        tracer = observe.activate(observe.Tracer())
        # perf_counter is system-wide: the parent's epoch puts the
        # worker's wall spans on the parent's timeline
        tracer._wall_epoch = epoch
    outcomes = []
    for index, task in chunk:
        try:
            with nullcontext() if tracer is None else tracer.span(
                f"task[{index}]", cat="core", process="pool", thread="tasks"
            ):
                value = fn(task)
            outcomes.append((index, True, value))
        except Exception:
            outcomes.append((index, False, traceback.format_exc()))
    if tracer is None:
        return current_worker(), outcomes, None
    observe.deactivate()
    return current_worker(), outcomes, tracemerge.capture(tracer)


def run_tasks(
    fn: Callable,
    tasks: Iterable,
    *,
    jobs: int | None = 1,
    chunksize: int | None = None,
    context: str | None = None,
) -> list:
    """Evaluate ``fn`` over ``tasks`` on ``jobs`` processes, in order.

    Returns ``[fn(t) for t in tasks]`` — same values, same order — with
    the work spread over a :class:`WorkerPool` when ``jobs > 1``.
    ``jobs=0`` means ``os.cpu_count()``. The serial path (``jobs<=1`` or
    fewer than two tasks) runs inline with zero pool machinery.
    """
    indexed = list(enumerate(tasks))
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(indexed) <= 1:
        return [fn(task) for _, task in indexed]
    jobs = min(jobs, len(indexed))
    if chunksize is None:
        chunksize = default_chunksize(len(indexed), jobs)

    tracer = observe.active()
    span = nullcontext() if tracer is None else tracer.span(
        "par.run_tasks", cat="core", process="par", thread="pool",
        args={"tasks": len(indexed), "jobs": jobs, "chunksize": chunksize},
    )
    epoch = None if tracer is None else tracer._wall_epoch
    values, failures = [], []
    # encoded before the workers fork (submit passes the tokens through):
    # encoding while they start made 2-worker virtual runs ~15% slower
    chunks = [shm.encode(indexed[start:start + chunksize])
              for start in range(0, len(indexed), chunksize)]
    with span, WorkerPool(
        partial(_run_chunk, fn, epoch), workers=jobs, context=context
    ) as pool:
        futures = [pool.submit(chunk) for chunk in chunks]
        for future in futures:
            worker, outcomes, captured = future.result()
            if captured:
                tracemerge.merge_capture(tracer, captured, worker=worker)
            for index, ok, value in outcomes:
                if ok:
                    values.append(value)
                else:
                    failures.append((index, value))
    if failures:
        index, tb = failures[0]
        more = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
        raise ParError(
            f"task {index} raised in a worker{more}:\n{tb.rstrip()}"
        )
    return values
