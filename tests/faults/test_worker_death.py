"""A worker killed mid-task: the shared ``repro.par.WorkerPool`` death path.

The task calls ``os._exit`` inside the worker, so the process is gone
with its task in flight. ``run_tasks`` must raise ``ParError`` naming
the dead worker and leave no shared-memory segment behind; a served
request must fail exactly once, stay out of the cache, and run cold
when resubmitted to the same service.
"""

import asyncio
import multiprocessing
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.execute import JobSpec
from repro.core.settings import GrayScottSettings
from repro.par import SHM_THRESHOLD, run_tasks, shm
from repro.serve import service as service_mod
from repro.serve.service import DONE, FAILED, SimService
from repro.util.errors import ParError

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the injected fault is a closure, which needs fork",
)


def _die_on_two(arr):
    if arr[0] == 2:
        os._exit(3)
    return float(arr[0])


class TestRunTasks:
    def test_dead_worker_raises_and_leaks_no_segment(self, monkeypatch):
        created = []
        share = shm.share_array

        def recording(arr):
            ref = share(arr)
            created.append(ref.name)
            return ref

        monkeypatch.setattr(shm, "share_array", recording)
        tasks = [np.full(SHM_THRESHOLD // 8, float(i)) for i in range(6)]
        with pytest.raises(
            ParError, match=r"pool worker [01] died with exit code 3"
        ):
            run_tasks(_die_on_two, tasks, jobs=2, chunksize=1)
        assert len(created) == len(tasks)  # one segment per task payload
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestServedRequest:
    def test_fails_once_is_not_cached_and_reruns_cold(self, tmp_path, monkeypatch):
        marker = tmp_path / "killed"
        execute = service_mod.execute_and_render

        def die_once(spec):
            if not marker.exists():
                marker.touch()
                os._exit(3)
            return execute(spec)

        monkeypatch.setattr(service_mod, "execute_and_render", die_once)
        spec = JobSpec(settings=GrayScottSettings(
            L=12, steps=4, plotgap=2, output=str(tmp_path / "gs.bp")
        ))

        async def main():
            async with SimService(backend="process", workers=1) as service:
                record = await service.submit(spec)
                with pytest.raises(ParError, match="died with exit code 3"):
                    await service.wait(record)
                cached = record.key in service.store
                again = await service.run(spec)
                return record, cached, again, service.stats(), len(service.store)

        record, cached, again, stats, entries = asyncio.run(main())
        assert record.state == FAILED and not cached
        assert again.state == DONE and not again.cached and entries == 1
        assert stats["failed"] == 1 and stats["completed"] == 1
