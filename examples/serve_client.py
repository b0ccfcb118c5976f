#!/usr/bin/env python3
"""The simulator as a cached service: hits, coalescing, telemetry.

The paper's workflow vision is interactive steering — a scientist
asking the same questions repeatedly from a notebook. `repro.serve`
answers repeats from a canonical-hash-keyed cache, byte-identically,
without recomputing. This walkthrough exercises the full client
surface against an in-process service:

1. a cold run (executes), a repeat (cache hit, byte-identical);
2. equivalent-but-differently-spelled settings hitting the same entry;
3. concurrent identical requests coalesced into one execution;
4. admission control: fail-fast rejection vs. blocking backpressure;
5. live service events consumed from the SST telemetry stream.

Usage::

    python examples/serve_client.py
"""

import asyncio
import tempfile
import threading

from repro.adios.sst import END_OF_STREAM, OK, SSTReader
from repro.core.execute import JobSpec
from repro.core.settings import GrayScottSettings
from repro.observe.stream import read_live_snapshot
from repro.serve import AdmissionError, SimService
from repro.serve.loadgen import generate_specs

STREAM = "serve-demo"


def telemetry_tail(events: list) -> None:
    """Watch the service's live event stream (runs in a thread).

    Each SST step carries one `repro.serve.events/1` record as a uint8
    `snapshot` byte array (the LiveMetricsPublisher wire format).
    """
    reader = SSTReader(None, STREAM, connect_timeout=30)
    while True:
        status, record = read_live_snapshot(reader, timeout=30)
        if status == END_OF_STREAM:
            break
        if status == OK:
            events.append(record["event"])


async def demo() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-client-") as scratch:
        settings = GrayScottSettings(
            L=16, steps=6, plotgap=3, noise=0.02,
            output=f"{scratch}/gs.bp",
        )
        events: list = []
        tail = threading.Thread(
            target=telemetry_tail, args=(events,), daemon=True
        )

        async with SimService(
            workers=2, backend="thread", max_pending=8,
            workdir=f"{scratch}/jobs", stream=STREAM,
        ) as service:
            tail.start()

            # -- 1. cold run, then a byte-identical cache hit ----------
            spec = JobSpec(settings=settings)
            cold = await service.run(spec)
            hot = await service.run(spec)
            print(f"cold: cached={cold.cached}  "
                  f"latency={cold.latency_seconds * 1e3:.1f} ms")
            print(f"hot:  cached={hot.cached}   "
                  f"latency={hot.latency_seconds * 1e3:.3f} ms")
            assert not cold.cached and hot.cached
            assert hot.rendered == cold.rendered, "hits replay stored bytes"
            print("cache hit is byte-identical to the cold run\n")

            # -- 2. spelling-invariant identity ------------------------
            respelled = GrayScottSettings.from_json(settings.to_json())
            again = await service.run(JobSpec(settings=respelled))
            assert again.cached, "round-tripped settings hash identically"
            print("JSON round-tripped settings hit the same cache entry\n")

            # -- 3. coalescing: N identical concurrent requests --------
            miss = generate_specs(settings, 2)[1]  # perturbed (F, k)
            records = await asyncio.gather(
                *(service.run(miss) for _ in range(4))
            )
            executed = sum(1 for r in records if not r.cached
                           and not r.coalesced)
            print(f"4 concurrent identical requests -> {executed} "
                  f"execution(s), "
                  f"{sum(r.coalesced for r in records)} coalesced\n")

            # -- 4. admission control ----------------------------------
            # submit(wait=False) never yields to the event loop, so a
            # tight burst of distinct specs fills the bounded queue
            # before any dispatcher can drain it
            try:
                for s in generate_specs(settings, 16)[2:]:
                    await service.submit(s)
            except AdmissionError as exc:
                print(f"fail-fast admission: {exc}")
            # wait=True converts overload into backpressure instead
            print("(submit(wait=True) would block for a slot instead)\n")

            stats = service.stats()
            print(service.render_stats())

        tail.join(10)
        print(f"\ntelemetry: {len(events)} events observed live, e.g. "
              f"{sorted(set(events))[:4]}")
        assert stats["cache_hits"] >= 2
        return 0


def main() -> int:
    return asyncio.run(demo())


if __name__ == "__main__":
    raise SystemExit(main())
