import asyncio
import time

import pytest

from repro.core.execute import JobSpec
from repro.core.settings import GrayScottSettings
from repro.serve.service import SimService, execute_and_render
from repro.util.errors import AdmissionError, ServeError


@pytest.fixture
def settings(tmp_path):
    return GrayScottSettings(
        L=12, steps=4, plotgap=2, output=str(tmp_path / "gs.bp")
    )


@pytest.fixture
def spec(settings):
    return JobSpec(settings=settings)


def _fake_payload(spec):
    return {
        "result": {"key": spec.fingerprint},
        "rendered": f"report for {spec.fingerprint}",
        "provenance": {"fingerprint": spec.fingerprint},
    }


class TestServiceCache:
    def test_repeat_is_cached_and_byte_identical(self, spec):
        """The acceptance criterion: a repeated identical request is
        answered from the ResultStore without recompute, byte-identical
        to the cold run."""
        async def main():
            async with SimService(backend="inline", workers=1) as service:
                cold = await service.run(spec)
                hot = await service.run(spec)
                return cold, hot, service.stats()

        cold, hot, stats = asyncio.run(main())
        assert not cold.cached and hot.cached
        assert hot.rendered == cold.rendered
        assert hot.provenance == cold.provenance
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 1

    def test_cache_hit_does_not_recompute(self, spec, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s.canonical_key())
            return _fake_payload(s)

        monkeypatch.setattr(
            "repro.serve.service.execute_and_render", counting
        )

        async def main():
            async with SimService(backend="inline", workers=1) as service:
                for _ in range(5):
                    await service.run(spec)

        asyncio.run(main())
        assert len(calls) == 1  # four hits, zero recomputes

    def test_distinct_settings_are_distinct_entries(self, settings):
        a = JobSpec(settings=settings)
        b = JobSpec(settings=settings.with_overrides(F=settings.F + 1e-4))

        async def main():
            async with SimService(backend="inline", workers=1) as service:
                ra = await service.run(a)
                rb = await service.run(b)
                return ra, rb, len(service.store)

        ra, rb, entries = asyncio.run(main())
        assert not ra.cached and not rb.cached
        assert entries == 2

    def test_field_order_and_roundtrip_hit_the_same_entry(self, settings):
        """Settings from a reordered JSON file hash to the same job."""
        reordered = GrayScottSettings.from_json(settings.to_json())
        a, b = JobSpec(settings=settings), JobSpec(settings=reordered)
        assert a.canonical_key() == b.canonical_key()

        async def main():
            async with SimService(backend="inline", workers=1) as service:
                await service.run(a)
                hot = await service.run(b)
                return hot

        assert asyncio.run(main()).cached


class TestServiceFlow:
    def test_coalescing_identical_inflight(self, spec, monkeypatch):
        calls = []

        def slow(s):
            calls.append(s.canonical_key())
            time.sleep(0.05)
            return _fake_payload(s)

        monkeypatch.setattr("repro.serve.service.execute_and_render", slow)

        async def main():
            async with SimService(backend="thread", workers=2) as service:
                first = await service.submit(spec)
                second = await service.submit(spec)
                await service.wait(first)
                await service.wait(second)
                return first, second, service.stats()

        first, second, stats = asyncio.run(main())
        assert not first.coalesced and second.coalesced
        assert second.rendered == first.rendered
        assert len(calls) == 1
        assert stats["coalesced"] == 1

    def test_admission_control_rejects_when_full(self, settings, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.service.execute_and_render", _fake_payload
        )
        specs = [
            JobSpec(settings=settings.with_overrides(F=0.02 + 1e-4 * i))
            for i in range(4)
        ]

        async def main():
            async with SimService(
                backend="inline", workers=1, max_pending=1
            ) as service:
                records, rejected = [], 0
                # no awaits between submits: the dispatcher never gets
                # the loop, so the bounded queue genuinely fills
                for s in specs:
                    try:
                        records.append(await service.submit(s))
                    except AdmissionError:
                        rejected += 1
                for r in records:
                    await service.wait(r)
                return rejected, service.stats()

        rejected, stats = asyncio.run(main())
        assert rejected == 3
        assert stats["rejected"] == 3
        assert stats["completed"] == 1

    def test_wait_true_applies_backpressure_instead(self, settings,
                                                    monkeypatch):
        monkeypatch.setattr(
            "repro.serve.service.execute_and_render", _fake_payload
        )
        specs = [
            JobSpec(settings=settings.with_overrides(F=0.02 + 1e-4 * i))
            for i in range(6)
        ]

        async def main():
            async with SimService(
                backend="inline", workers=1, max_pending=1
            ) as service:
                records = await asyncio.gather(
                    *(service.run(s, wait=True) for s in specs)
                )
                return records, service.stats()

        records, stats = asyncio.run(main())
        assert len(records) == 6
        assert stats["rejected"] == 0
        assert stats["completed"] == 6

    def test_failed_job_raises_and_is_not_cached(self, spec, monkeypatch):
        attempts = []

        def flaky(s):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient solver failure")
            return _fake_payload(s)

        monkeypatch.setattr("repro.serve.service.execute_and_render", flaky)

        async def main():
            async with SimService(backend="inline", workers=1) as service:
                with pytest.raises(RuntimeError, match="transient"):
                    await service.run(spec)
                retry = await service.run(spec)
                return retry, service.stats()

        retry, stats = asyncio.run(main())
        assert not retry.cached  # the failure was not stored
        assert retry.state == "done"
        assert stats["failed"] == 1 and stats["completed"] == 1

    def test_workdir_sandboxes_datasets_by_hash(self, settings, tmp_path):
        a = JobSpec(settings=settings)
        b = JobSpec(settings=settings.with_overrides(F=settings.F + 1e-4))
        workdir = tmp_path / "serve-jobs"

        async def main():
            async with SimService(
                backend="inline", workers=1, workdir=str(workdir)
            ) as service:
                ra = await service.run(a)
                rb = await service.run(b)
                return ra, rb

        ra, rb = asyncio.run(main())
        datasets = sorted(p.name for p in workdir.glob("*.bp"))
        assert len(datasets) == 2  # one sandbox per distinct job
        assert a.canonical_key()[:16] in {d.split(".")[0] for d in datasets}
        # records keep the original, un-sandboxed spec (the cache key)
        assert ra.spec.settings.output == settings.output
        assert ra.result.report.dataset != rb.result.report.dataset


class TestServiceTelemetry:
    def test_events_reach_an_attached_reader(self, spec, monkeypatch):
        import json

        import numpy as np

        from repro.adios.api import Adios
        from repro.adios.sst import OK

        monkeypatch.setattr(
            "repro.serve.service.execute_and_render", _fake_payload
        )

        async def main():
            async with SimService(
                backend="inline", workers=1, stream="test.serve.events",
                stream_queue_limit=32,
            ) as service:
                io = Adios().declare_io("test.serve.reader")
                io.set_engine("SST")
                reader = io.open("test.serve.events", "r")
                await service.run(spec)
                events = []
                while len(events) < 4:
                    status = reader.begin_step(timeout=5.0)
                    assert status == OK
                    payload = reader.get("snapshot")
                    events.append(
                        json.loads(np.asarray(payload).tobytes().decode())
                    )
                    reader.end_step()
                reader.close()
                return events, service.stats()

        events, stats = asyncio.run(main())
        kinds = [e["event"] for e in events]
        assert kinds[0] == "service.start"
        assert "job.queued" in kinds and "job.done" in kinds
        assert all(e["schema"] == "repro.serve.events/1" for e in events)
        assert stats["events_published"] >= 4

    def test_unread_stream_drops_instead_of_stalling(self, settings,
                                                     monkeypatch):
        monkeypatch.setattr(
            "repro.serve.service.execute_and_render", _fake_payload
        )
        specs = [
            JobSpec(settings=settings.with_overrides(F=0.02 + 1e-4 * i))
            for i in range(8)
        ]

        async def main():
            async with SimService(
                backend="inline", workers=1, stream="test.serve.noreader",
                stream_queue_limit=2,
            ) as service:
                for s in specs:
                    await service.run(s)
                return service.stats()

        stats = asyncio.run(main())  # completing at all proves no stall
        assert stats["events_published"] == 2
        assert stats["events_dropped"] > 0
        from repro.adios.sst import SstBroker

        assert "test.serve.noreader" not in SstBroker._streams


class TestServiceLifecycle:
    def test_bad_backend_rejected(self):
        with pytest.raises(ServeError, match="backend"):
            SimService(backend="quantum")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ServeError, match="worker"):
            SimService(workers=0)
        with pytest.raises(ServeError, match="max_pending"):
            SimService(max_pending=0)

    def test_submit_before_start_rejected(self, spec):
        async def main():
            service = SimService(backend="inline")
            with pytest.raises(ServeError, match="not running"):
                await service.submit(spec)

        asyncio.run(main())

    def test_double_start_rejected(self):
        async def main():
            service = SimService(backend="inline")
            await service.start()
            try:
                with pytest.raises(ServeError, match="already started"):
                    await service.start()
            finally:
                await service.close()

        asyncio.run(main())

    def test_render_stats_smoke(self, spec):
        async def main():
            async with SimService(backend="inline", workers=1) as service:
                await service.run(spec)
                await service.run(spec)
                return service.render_stats()

        text = asyncio.run(main())
        assert "cache hit rate" in text
        assert "hit latency p50/p99" in text

    def test_stats_before_any_job(self):
        service = SimService(backend="inline")
        stats = service.stats()
        assert stats["submitted"] == stats["completed"] == 0
        empty = {"count": 0, "p50": None, "p99": None}
        assert stats["latency"] == {"hit": empty, "miss": empty}

    def test_stats_count_hits_and_misses(self, spec):
        async def main():
            async with SimService(backend="inline", workers=1) as service:
                for _ in range(3):
                    await service.run(spec)
                return service.stats()

        stats = asyncio.run(main())
        assert stats["submitted"] == stats["completed"] == 3
        assert (stats["cache_misses"], stats["cache_hits"]) == (1, 2)
        assert stats["latency"]["miss"]["count"] == 1
        assert stats["latency"]["hit"]["count"] == 2
        hit = stats["latency"]["hit"]
        assert 0.0 <= hit["p50"] <= hit["p99"]


class TestExecuteAndRender:
    def test_worker_unit_produces_cacheable_payload(self, spec):
        payload = execute_and_render(spec)
        assert set(payload) == {"result", "rendered", "provenance"}
        assert payload["rendered"] == payload["result"].render()
        assert payload["provenance"]["workflow"] == "gray-scott"
