"""SimService: the asyncio job queue in front of the simulation engine.

Request lifecycle::

    submit(spec)
      |-- admission control: queue full -> AdmissionError (or await)
      |-- cache lookup (ResultStore, canonical hash) -> immediate answer,
      |     byte-identical to the cold run, never recomputed
      |-- coalescing: an identical spec already in flight -> attach to it
      `-- enqueue -> dispatcher -> backend executes
            backend: "process" (WorkerPool), "thread", or "inline"
            done -> store in cache, resolve every attached waiter

Backpressure policy (docs/SERVICE.md): the admission queue is bounded
at ``max_pending``. ``submit(..., wait=True)`` blocks the caller until
a slot frees (cooperative backpressure); ``wait=False`` (default)
raises :class:`~repro.util.errors.AdmissionError` immediately
(fail-fast admission control). Telemetry published over the
:mod:`repro.adios.sst` broker is *lossy by design*: when no client
drains the stream and its queue limit is reached, events are dropped
and counted — the service never stalls on its own observability.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.core.execute import JobSpec, execute_job
from repro.serve.store import ResultStore
from repro.util.errors import AdmissionError, ServeError

#: schema id of records published on the service event stream
EVENTS_SCHEMA = "repro.serve.events/1"

#: job states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"


def execute_and_render(spec: JobSpec) -> dict:
    """The worker-side unit of service work: engine + one-time render.

    Runs the job through the presentation-free engine, then renders the
    report text exactly once. The service caches these bytes, which is
    what makes every later cache hit byte-identical to this cold run.
    Module-level so it pickles into spawn-context pool workers.
    """
    from repro.core import present

    result = execute_job(spec)
    return {
        "result": result,
        "rendered": present.render_result(result),
        "provenance": present.result_provenance(result),
    }


@dataclass
class JobRecord:
    """One submitted request as the service tracks it."""

    job_id: int
    spec: JobSpec
    key: str
    state: str = QUEUED
    #: answered from ResultStore without execution
    cached: bool = False
    #: attached to an identical in-flight job instead of executing
    coalesced: bool = False
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    rendered: str | None = None
    provenance: dict | None = None
    result: object | None = None
    error: str | None = None
    #: resolved when the job reaches DONE/FAILED
    future: asyncio.Future = field(repr=False, default=None)

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-answer latency (None while unfinished)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def ok(self) -> bool:
        return self.state == DONE


@dataclass
class ServiceStats:
    """Counter snapshot rendered by ``stats()`` / the CLI table."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced: int = 0
    events_published: int = 0
    events_dropped: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class _EventPublisher:
    """Lossy SST telemetry: publish if the stream has room, else drop.

    Wraps :class:`repro.observe.stream.LiveMetricsPublisher` (the
    existing adios.sst live feed) with the service's never-stall
    policy: one peek at the writer's backlog decides publish-or-drop.
    """

    def __init__(self, stream: str, queue_limit: int = 8):
        from repro.observe.stream import LiveMetricsPublisher

        self._publisher = LiveMetricsPublisher(
            stream, queue_limit=queue_limit
        )
        self.published = 0
        self.dropped = 0

    def publish(self, record: dict) -> bool:
        writer = self._publisher.writer
        if writer.backlog() >= writer.queue_limit:
            self.dropped += 1
            return False
        self._publisher.publish(record)
        self.published += 1
        return True

    def close(self) -> None:
        # abort(), not close(): a normal close blocks on a saturated
        # queue until a reader drains it, and telemetry may have no
        # reader at all. abort posts EOS without blocking and releases
        # the stream name immediately.
        self._publisher.writer.abort()


class SimService:
    """An always-on, cached, admission-controlled simulation service.

    >>> service = SimService(backend="thread", workers=4)
    >>> await service.start()
    >>> record = await service.submit(JobSpec(settings))
    >>> await service.wait(record)
    >>> record.cached, record.rendered
    >>> await service.close()

    ``backend``:

    - ``"process"`` — a persistent :class:`repro.par.WorkerPool` of
      worker processes (real concurrency, production shape);
    - ``"thread"`` — an executor thread per worker (cheap startup;
      NumPy releases the GIL for the solve inner loops);
    - ``"inline"`` — execute on the event loop (deterministic tests).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        backend: str = "thread",
        max_pending: int = 64,
        cache_capacity: int = 256,
        workdir=None,
        stream: str | None = None,
        stream_queue_limit: int = 8,
        jit_cache: str | None = None,
    ):
        if backend not in ("process", "thread", "inline"):
            raise ServeError(
                f"backend must be process|thread|inline (got {backend!r})"
            )
        if workers < 1:
            raise ServeError(f"service needs >= 1 worker, got {workers}")
        if max_pending < 1:
            raise ServeError(f"max_pending must be >= 1, got {max_pending}")
        self.backend = backend
        self.workers = workers
        self.max_pending = max_pending
        self.workdir = workdir
        self.jit_cache = jit_cache
        self.store = ResultStore(cache_capacity)
        self.stats_counters = ServiceStats()
        self.stream = stream
        self._stream_queue_limit = stream_queue_limit
        self._events: _EventPublisher | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._inflight: dict[str, JobRecord] = {}
        self._waiters: dict[str, list[JobRecord]] = {}
        self._pool = None
        self._executor = None
        self._next_id = 0
        self._started = False
        self._closed = False
        #: latency samples in seconds, split by how they were answered
        self.hit_latencies: list[float] = []
        self.miss_latencies: list[float] = []

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "SimService":
        """Bring the queue, dispatchers, backend, and telemetry up."""
        if self._started:
            raise ServeError("service already started")
        self._started = True
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        if self.jit_cache is not None and self.backend != "process":
            # thread/inline backends share this process's TraceMemo, so
            # warm it here; process workers warm themselves on spawn.
            from repro.gpu import jitcache

            jitcache.warm_start(self.jit_cache)
        if self.backend == "process":
            from repro.par import WorkerPool

            self._pool = WorkerPool(
                execute_and_render,
                workers=self.workers,
                jit_cache=self.jit_cache,
            )
        elif self.backend == "thread":
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="serve-worker",
            )
        if self.stream is not None:
            self._events = _EventPublisher(
                self.stream, self._stream_queue_limit
            )
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"serve-d{i}")
            for i in range(self.workers)
        ]
        self._publish({"event": "service.start", "backend": self.backend,
                       "workers": self.workers})
        return self

    async def close(self) -> None:
        """Graceful shutdown: finish queued work, stop everything."""
        if not self._started or self._closed:
            return
        self._closed = True
        for _ in self._dispatchers:
            await self._queue.put(None)
        await asyncio.gather(*self._dispatchers)
        if self._pool is not None:
            self._pool.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._publish({"event": "service.stop",
                       "stats": self.stats_counters.as_dict()})
        if self._events is not None:
            self._events.close()

    async def __aenter__(self) -> "SimService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- submission ----------------------------------------------------------
    async def submit(self, spec: JobSpec, *, wait: bool = False) -> JobRecord:
        """Accept (or refuse) one request; returns its tracking record.

        Cache hits and coalesced attachments return immediately-done
        (or soon-done) records without consuming a queue slot. A miss
        needs a slot: with ``wait=False`` a full queue raises
        :class:`AdmissionError`; ``wait=True`` blocks until admitted —
        the caller *is* the backpressure.
        """
        if not self._started or self._closed:
            raise ServeError("submit() on a service that is not running")
        key = spec.canonical_key()
        record = self._new_record(spec, key)
        self.stats_counters.submitted += 1

        entry = self.store.get(key)
        if entry is not None:
            # answered from cache: the stored cold-run bytes, verbatim
            self.stats_counters.cache_hits += 1
            record.cached = True
            self._finish(record, entry.result, entry.rendered,
                         entry.extras.get("provenance"))
            self._publish({"event": "job.hit", "job": record.job_id,
                           "key": key[:16]})
            return record

        self.stats_counters.cache_misses += 1
        leader = self._inflight.get(key)
        if leader is not None:
            # identical spec already executing: attach, don't recompute
            self.stats_counters.coalesced += 1
            record.coalesced = True
            self._waiters.setdefault(key, []).append(record)
            self._publish({"event": "job.coalesced", "job": record.job_id,
                           "leader": leader.job_id, "key": key[:16]})
            return record

        self._inflight[key] = record
        if wait:
            await self._queue.put(record)
        else:
            try:
                self._queue.put_nowait(record)
            except asyncio.QueueFull:
                del self._inflight[key]
                record.state = REJECTED
                self.stats_counters.rejected += 1
                # the miss never ran; don't let it skew the miss counter
                self.stats_counters.cache_misses -= 1
                self._publish({"event": "job.rejected",
                               "job": record.job_id, "key": key[:16]})
                raise AdmissionError(
                    f"admission queue full ({self.max_pending} pending); "
                    "retry later or submit(wait=True)"
                ) from None
        self._publish({"event": "job.queued", "job": record.job_id,
                       "key": key[:16]})
        return record

    async def wait(self, record: JobRecord) -> JobRecord:
        """Block until the record resolves; re-raises a failed job's error."""
        await record.future
        return record

    async def run(self, spec: JobSpec, *, wait: bool = True) -> JobRecord:
        """submit + wait in one call."""
        record = await self.submit(spec, wait=wait)
        return await self.wait(record)

    # -- dispatch ------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            record = await self._queue.get()
            if record is None:
                return
            record.state = RUNNING
            record.started_at = time.perf_counter()
            self._publish({"event": "job.start", "job": record.job_id,
                           "key": record.key[:16]})
            spec = self._sandboxed(record.spec)
            try:
                payload = await self._execute(spec)
            except Exception as exc:  # noqa: BLE001 - job boundary
                self._fail(record, exc)
            else:
                cost = time.perf_counter() - record.started_at
                self.store.put(
                    record.key, payload["result"], payload["rendered"],
                    cost_seconds=cost,
                    extras={"provenance": payload["provenance"]},
                )
                self._finish(record, payload["result"], payload["rendered"],
                             payload["provenance"])

    def _sandboxed(self, spec: JobSpec) -> JobSpec:
        """Redirect a workflow job's dataset under the service workdir.

        Keyed by canonical hash, so identical jobs share a path and
        distinct jobs never collide. Virtual jobs write nothing and
        pass through. The record keeps the *original* spec — the cache
        key is computed before sandboxing.
        """
        if self.workdir is None or spec.mode != "workflow":
            return spec
        from pathlib import Path

        root = Path(self.workdir)
        root.mkdir(parents=True, exist_ok=True)
        target = root / f"{spec.canonical_key()[:16]}.bp"
        sandboxed = spec.with_output(str(target))
        if spec.settings.checkpoint:
            sandboxed = JobSpec(
                settings=sandboxed.settings.with_overrides(
                    checkpoint=str(root / f"{spec.canonical_key()[:16]}.ckpt.bp")
                ),
                mode=spec.mode, analyze=spec.analyze, resume=spec.resume,
            )
        return sandboxed

    async def _execute(self, spec: JobSpec) -> dict:
        if self.backend == "process":
            return await asyncio.wrap_future(self._pool.submit(spec))
        if self.backend == "thread":
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._executor, execute_and_render, spec
            )
        return execute_and_render(spec)

    # -- resolution ----------------------------------------------------------
    def _new_record(self, spec: JobSpec, key: str) -> JobRecord:
        self._next_id += 1
        return JobRecord(
            job_id=self._next_id,
            spec=spec,
            key=key,
            submitted_at=time.perf_counter(),
            future=asyncio.get_running_loop().create_future(),
        )

    def _resolve_one(self, record: JobRecord, result, rendered, provenance,
                     *, error: Exception | None = None) -> None:
        record.finished_at = time.perf_counter()
        if error is None:
            record.state = DONE
            record.result = result
            record.rendered = rendered
            record.provenance = provenance
            record.future.set_result(record)
            self.stats_counters.completed += 1
        else:
            record.state = FAILED
            record.error = str(error)
            record.future.set_exception(error)
            self.stats_counters.failed += 1
        latency = record.latency_seconds
        if record.cached:
            self.hit_latencies.append(latency)
        else:
            self.miss_latencies.append(latency)

    def _attached(self, record: JobRecord) -> list[JobRecord]:
        self._inflight.pop(record.key, None)
        return [record, *self._waiters.pop(record.key, [])]

    def _finish(self, record: JobRecord, result, rendered, provenance) -> None:
        for waiter in self._attached(record):
            self._resolve_one(waiter, result, rendered, provenance)
        self._publish({"event": "job.done", "job": record.job_id,
                       "key": record.key[:16], "cached": record.cached,
                       "latency_seconds": record.latency_seconds})

    def _fail(self, record: JobRecord, error: Exception) -> None:
        for waiter in self._attached(record):
            self._resolve_one(waiter, None, None, None, error=error)
        self._publish({"event": "job.failed", "job": record.job_id,
                       "key": record.key[:16], "error": str(error)})

    # -- telemetry -----------------------------------------------------------
    def _publish(self, body: dict) -> None:
        if self._events is None:
            return
        record = {"schema": EVENTS_SCHEMA, "time": time.perf_counter()}
        record.update(body)
        self._events.publish(record)
        self.stats_counters.events_published = self._events.published
        self.stats_counters.events_dropped = self._events.dropped

    # -- reporting -----------------------------------------------------------
    def stats(self) -> dict:
        """Counters + cache stats + latency quantiles, JSON-ready."""
        import numpy as np

        def quantiles(samples: list[float]) -> dict:
            if not samples:
                return {"count": 0, "p50": None, "p99": None}
            arr = np.asarray(samples)
            return {
                "count": int(arr.size),
                "p50": float(np.percentile(arr, 50)),
                "p99": float(np.percentile(arr, 99)),
            }

        return {
            **self.stats_counters.as_dict(),
            "store": self.store.stats(),
            "latency": {
                "hit": quantiles(self.hit_latencies),
                "miss": quantiles(self.miss_latencies),
            },
        }

    def render_stats(self) -> str:
        from repro.util.tables import Table

        stats = self.stats()
        table = Table(
            ["quantity", "value"],
            title=f"serve: {self.backend} backend, {self.workers} worker(s)",
        )
        for name in ("submitted", "completed", "failed", "rejected",
                     "cache_hits", "cache_misses", "coalesced"):
            table.add_row([name.replace("_", " "), stats[name]])
        store = stats["store"]
        table.add_row(["cache entries", f"{store['entries']}/{store['capacity']}"])
        table.add_row(["cache hit rate", f"{store['hit_rate'] * 100:.1f}%"])
        for kind in ("hit", "miss"):
            lat = stats["latency"][kind]
            if lat["count"]:
                table.add_row(
                    [f"{kind} latency p50/p99 (ms)",
                     f"{lat['p50'] * 1e3:.3f} / {lat['p99'] * 1e3:.3f}"]
                )
        if self._events is not None:
            table.add_row(
                ["events published/dropped",
                 f"{stats['events_published']}/{stats['events_dropped']}"]
            )
        return table.render()
