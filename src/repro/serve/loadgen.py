"""Synthetic clients for load-testing :class:`repro.serve.SimService`.

The generator replays many concurrent clients against one service:
each client issues a deterministic, seeded request schedule mixing
repeats of a hot configuration (cache hits) with unique parameter
variations (cache misses), with bursty exponential inter-arrival
gaps. The :class:`LoadReport` separates hit and miss latency
distributions (p50/p99) and measures saturation throughput — the
numbers ``benchmarks/bench_serve.py`` reports and gates.

Everything is seeded: the same (seed, clients, requests,
hit_fraction) produces the same request schedule, so runs are
comparable across machines and commits.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.core.execute import MODES, JobSpec
from repro.util.errors import AdmissionError, ConfigError, NativeToolchainError


def generate_specs(
    settings,
    count: int,
    *,
    mode: str = "workflow",
    analyze: bool = True,
    virtual_ranks: int = 0,
) -> list[JobSpec]:
    """``count`` distinct :class:`JobSpec` variations of one base config.

    Spec 0 is the base itself (the load mix's hot key); the rest
    perturb the feed/kill rates ``F``/``k`` by tiny distinct deltas, so
    every spec hashes to a different canonical key while staying in the
    same Gray-Scott pattern regime.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if count < 1:
        raise ConfigError(f"need >= 1 spec, got {count}")
    specs = []
    for i in range(count):
        varied = settings if i == 0 else settings.with_overrides(
            F=settings.F + 1e-5 * i, k=settings.k + 1e-6 * i
        )
        specs.append(
            JobSpec(
                settings=varied,
                mode=mode,
                analyze=analyze,
                virtual_ranks=virtual_ranks,
            )
        )
    return specs


#: ceiling on :attr:`LoadReport.hit_miss_p99_ratio`: a cache hit's p99
#: must stay at least 10x below a cache miss's p99
HIT_MISS_P99_LIMIT = 0.10


@dataclass
class LoadReport:
    """Outcome of one load run, split by how requests were answered."""

    clients: int
    requests: int
    hit_fraction: float
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    wall_seconds: float = 0.0
    hit_latencies: list[float] = field(default_factory=list)
    miss_latencies: list[float] = field(default_factory=list)

    @staticmethod
    def _percentile(samples: list[float], q: float) -> float | None:
        if not samples:
            return None
        return float(np.percentile(np.asarray(samples), q))

    @property
    def hit_p50(self) -> float | None:
        return self._percentile(self.hit_latencies, 50)

    @property
    def hit_p99(self) -> float | None:
        return self._percentile(self.hit_latencies, 99)

    @property
    def miss_p50(self) -> float | None:
        return self._percentile(self.miss_latencies, 50)

    @property
    def miss_p99(self) -> float | None:
        return self._percentile(self.miss_latencies, 99)

    @property
    def throughput(self) -> float:
        """Completed jobs per second over the whole run (saturation rate)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def hit_miss_p99_ratio(self) -> float | None:
        """hit p99 / miss p99 — the cache's tail-latency advantage.

        The service contract (docs/SERVICE.md) wants this at most
        :data:`HIT_MISS_P99_LIMIT`: a cache hit's p99 at least 10x
        below a cache miss's p99.
        """
        hit, miss = self.hit_p99, self.miss_p99
        if hit is None or miss is None or miss <= 0.0:
            return None
        return hit / miss

    def as_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "hit_fraction": self.hit_fraction,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "wall_seconds": self.wall_seconds,
            "throughput_jobs_per_second": self.throughput,
            "hit_p50_seconds": self.hit_p50,
            "hit_p99_seconds": self.hit_p99,
            "miss_p50_seconds": self.miss_p50,
            "miss_p99_seconds": self.miss_p99,
            "hit_miss_p99_ratio": self.hit_miss_p99_ratio,
        }

    def render(self) -> str:
        from repro.util.tables import Table

        def ms(value: float | None) -> str:
            return "-" if value is None else f"{value * 1e3:.3f}"

        table = Table(
            ["quantity", "value"],
            title=(
                f"serve load: {self.clients} clients x {self.requests} "
                f"requests, hit fraction {self.hit_fraction:.2f}"
            ),
        )
        table.add_row(["completed", self.completed])
        table.add_row(["failed", self.failed])
        table.add_row(["rejected (admission)", self.rejected])
        table.add_row(["cache hits", self.cache_hits])
        table.add_row(["coalesced", self.coalesced])
        table.add_row(["wall seconds", f"{self.wall_seconds:.3f}"])
        table.add_row(["throughput (jobs/s)", f"{self.throughput:.1f}"])
        table.add_row(["hit latency p50/p99 (ms)",
                       f"{ms(self.hit_p50)} / {ms(self.hit_p99)}"])
        table.add_row(["miss latency p50/p99 (ms)",
                       f"{ms(self.miss_p50)} / {ms(self.miss_p99)}"])
        ratio = self.hit_miss_p99_ratio
        table.add_row(
            ["hit/miss p99 ratio",
             "-" if ratio is None
             else f"{ratio:.4f} (want <= {HIT_MISS_P99_LIMIT})"]
        )
        return table.render()


def _schedule(
    specs: list[JobSpec],
    clients: int,
    requests: int,
    hit_fraction: float,
    seed: int,
) -> list[list[JobSpec]]:
    """Per-client request lists: hot-key repeats mixed with unique misses.

    A draw below ``hit_fraction`` requests the hot spec (``specs[0]``);
    otherwise the next unused variation, cycling once exhausted (cycled
    repeats naturally become hits too, as they would in production).
    The very first scheduled request is forced to the hot spec so it is
    warm before any client repeats it.
    """
    rng = np.random.default_rng(seed)
    cold = iter(range(1, len(specs)))
    sequence: list[JobSpec] = []
    for i in range(clients * requests):
        if i == 0 or rng.random() < hit_fraction:
            sequence.append(specs[0])
        else:
            index = next(cold, None)
            if index is None:
                cold = iter(range(1, len(specs)))
                index = next(cold, 0)
            sequence.append(specs[index])
    return [sequence[c::clients] for c in range(clients)]


async def drive_load(
    service,
    specs: list[JobSpec],
    *,
    clients: int = 8,
    requests: int = 8,
    hit_fraction: float = 0.75,
    pace: float = 0.0,
    seed: int = 20230707,
    admission: str = "wait",
) -> LoadReport:
    """Replay the synthetic client mix against a *started* service.

    ``pace`` scales bursty inter-arrival gaps: each client draws
    exponential think times but sends roughly half its requests
    back-to-back (gap zero), so arrivals cluster. ``pace=0`` is a
    closed-loop hammer — the saturation measurement. ``admission``
    chooses the full-queue behavior: ``"wait"`` blocks on backpressure,
    ``"reject"`` counts :class:`AdmissionError` refusals and moves on.
    """
    if admission not in ("wait", "reject"):
        raise ConfigError(f"admission must be wait|reject, got {admission!r}")
    report = LoadReport(clients=clients, requests=requests,
                        hit_fraction=hit_fraction)
    schedules = _schedule(specs, clients, requests, hit_fraction, seed)
    lock = asyncio.Lock()

    async def client(client_id: int, mine: list[JobSpec]) -> None:
        rng = np.random.default_rng(seed + 1 + client_id)
        for spec in mine:
            if pace > 0.0 and rng.random() >= 0.5:
                await asyncio.sleep(pace * float(rng.exponential()))
            try:
                record = await service.run(spec, wait=admission == "wait")
            except AdmissionError:
                async with lock:
                    report.rejected += 1
                continue
            except NativeToolchainError:
                raise  # no request that computes can succeed on this host
            except Exception:
                async with lock:
                    report.failed += 1
                continue
            async with lock:
                report.completed += 1
                if record.cached:
                    report.cache_hits += 1
                    report.hit_latencies.append(record.latency_seconds)
                else:
                    report.miss_latencies.append(record.latency_seconds)
                if record.coalesced:
                    report.coalesced += 1

    loop = asyncio.get_running_loop()
    started = loop.time()
    await asyncio.gather(
        *(client(c, mine) for c, mine in enumerate(schedules))
    )
    report.wall_seconds = loop.time() - started
    return report


def run_load(
    settings,
    *,
    clients: int = 8,
    requests: int = 8,
    hit_fraction: float = 0.75,
    workers: int = 2,
    backend: str = "thread",
    mode: str = "workflow",
    virtual_ranks: int = 0,
    max_pending: int = 64,
    pace: float = 0.0,
    seed: int = 20230707,
    workdir=None,
    stream: str | None = None,
    jit_cache: str | None = None,
) -> tuple[LoadReport, dict]:
    """Full synchronous load run: service up, drive, service down.

    Returns ``(LoadReport, service stats dict)``. This is the entry
    point for ``benchmarks/bench_serve.py`` and the ``serve-mixed``
    perfbench workload; tests drive :func:`drive_load` directly for
    finer-grained control.
    """
    misses = max(1, round(clients * requests * (1.0 - hit_fraction)))
    specs = generate_specs(
        settings, 1 + misses, mode=mode, virtual_ranks=virtual_ranks
    )

    async def _main() -> tuple[LoadReport, dict]:
        from repro.serve.service import SimService

        async with SimService(
            workers=workers,
            backend=backend,
            max_pending=max_pending,
            workdir=workdir,
            stream=stream,
            jit_cache=jit_cache,
        ) as service:
            report = await drive_load(
                service,
                specs,
                clients=clients,
                requests=requests,
                hit_fraction=hit_fraction,
                pace=pace,
                seed=seed,
            )
            return report, service.stats()

    return asyncio.run(_main())
