"""The persistent JIT compilation cache (repro.gpu.jitcache).

Covers the on-disk format (schema versioning, corruption tolerance,
atomic writes, LRU capping), the tier ladder through
:class:`~repro.gpu.jit.TraceMemo` (memo -> disk -> trace), warm-start
preloading, cross-process key stability, and the jobs=1 vs jobs=4
trace bit-identity contract through the persistent cache.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import (
    kernel_args,
    make_gray_scott_kernel,
    make_laplacian_kernel,
)
from repro.gpu import jitcache
from repro.gpu.jit import TraceMemo, kernel_fingerprint, trace_kernel
from repro.gpu.jitcache import (
    ENTRY_SCHEMA,
    JitCacheError,
    JitDiskCache,
    canonical_key,
    freeze_key,
    persistable_key,
    serialize_trace,
)

REPO_SRC = str(Path(__file__).parents[2] / "src")


def _gs_setup(edge=12):
    shape = (edge, edge, edge)
    u = np.ones(shape, order="F")
    v = np.ones(shape, order="F")
    un = np.zeros(shape, order="F")
    vn = np.zeros(shape, order="F")
    kernel = make_gray_scott_kernel()
    args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=0)
    return kernel, args


class TestFingerprint:
    def test_stable_within_process(self):
        kernel, _ = _gs_setup()
        assert kernel_fingerprint(kernel) == kernel_fingerprint(kernel)

    def test_identical_source_same_fingerprint(self):
        # two independently constructed kernels of the same source hash
        # identically — the property that makes keys process-portable
        a = make_gray_scott_kernel()
        b = make_gray_scott_kernel()
        assert a is not b
        assert kernel_fingerprint(a) == kernel_fingerprint(b)

    def test_different_kernels_differ(self):
        assert kernel_fingerprint(make_gray_scott_kernel()) != \
            kernel_fingerprint(make_laplacian_kernel())

    def test_cross_process_key_is_stable(self, tmp_path):
        # the satellite fix: the memo key must spell identically in a
        # brand-new interpreter, or spawn workers silently re-trace
        script = (
            "import sys, json\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "import numpy as np\n"
            "from repro.core.params import GrayScottParams\n"
            "from repro.core.stencil import kernel_args, "
            "make_gray_scott_kernel\n"
            "from repro.gpu.jit import TraceMemo\n"
            "from repro.gpu.jitcache import canonical_key\n"
            "shape = (12, 12, 12)\n"
            "u, v = np.ones(shape, order='F'), np.ones(shape, order='F')\n"
            "un, vn = np.zeros(shape, order='F'), np.zeros(shape, order='F')\n"
            "kernel = make_gray_scott_kernel()\n"
            "args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, "
            "step=0)\n"
            "print(canonical_key(TraceMemo.signature(kernel, args)))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(outputs) == 1
        kernel, args = _gs_setup()
        here = canonical_key(TraceMemo.signature(kernel, args))
        assert outputs == {here}

    def test_local_fallback_keys_never_persist(self, tmp_path):
        # a kernel defined in-memory has no source: its id()-based key
        # must stay out of the disk tier (ids collide across processes)
        exec_ns = {}
        exec(
            "def body(ctx, u, v):\n"
            "    i, j, k = ctx.global_idx()\n"
            "    v[i, j, k] = u[i, j, k]\n",
            exec_ns,
        )
        from repro.gpu.kernel import Kernel

        kernel = Kernel("anon", exec_ns["body"])
        assert kernel_fingerprint(kernel) is None
        memo = TraceMemo()
        key = memo.signature(kernel, ())
        assert key[0][0] == "kernel_local"
        assert not persistable_key(key)
        cache = JitDiskCache(tmp_path / "cache")
        kernel2, args = _gs_setup()
        trace = trace_kernel(kernel2, args)
        assert cache.store(key, kernel, trace) is False
        assert cache.lookup(key) is None
        assert cache.unsupported == 2
        assert cache.stats()["entries"] == 0


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        kernel, args = _gs_setup()
        memo = TraceMemo()
        key = memo.signature(kernel, args)
        trace = trace_kernel(kernel, args)
        cache = JitDiskCache(tmp_path / "cache")
        assert cache.store(key, kernel, trace) is True
        loaded = JitDiskCache(tmp_path / "cache").lookup(key)
        assert loaded is not None
        assert serialize_trace(loaded) == serialize_trace(trace)

    def test_lookup_miss_counts(self, tmp_path):
        cache = JitDiskCache(tmp_path)
        kernel, args = _gs_setup()
        assert cache.lookup(TraceMemo.signature(kernel, args)) is None
        assert cache.misses == 1

    def test_rejects_bad_max_entries(self, tmp_path):
        with pytest.raises(JitCacheError):
            JitDiskCache(tmp_path, max_entries=0)

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(JitCacheError):
            JitDiskCache(blocker / "cache")

    def test_kernel_source_edit_invalidates(self, tmp_path):
        # the same launch through a kernel with different source hashes
        # to a different key: the old entry can never be served
        kernel, args = _gs_setup()
        other = make_laplacian_kernel()
        lap_args = (args[0], args[2])
        key_a = TraceMemo.signature(kernel, args)
        key_b = TraceMemo.signature(other, lap_args)
        assert key_a[0] != key_b[0]
        cache = JitDiskCache(tmp_path)
        cache.store(key_a, kernel, trace_kernel(kernel, args))
        assert cache.lookup(key_b) is None

    def test_schema_version_bump_invalidates(self, tmp_path, monkeypatch):
        kernel, args = _gs_setup()
        key = TraceMemo.signature(kernel, args)
        cache = JitDiskCache(tmp_path)
        cache.store(key, kernel, trace_kernel(kernel, args))
        (entry_file,) = list(tmp_path.glob("*.trace"))
        # an entry written by a previous format version...
        monkeypatch.setattr(jitcache, "ENTRY_SCHEMA", "repro.gpu.jitcache/2")
        fresh = JitDiskCache(tmp_path)
        assert fresh.lookup(key) is None
        assert fresh.corrupt == 1
        assert not entry_file.exists()  # ...is dropped, not resurrected

    def test_truncated_entry_is_dropped(self, tmp_path):
        kernel, args = _gs_setup()
        key = TraceMemo.signature(kernel, args)
        cache = JitDiskCache(tmp_path)
        cache.store(key, kernel, trace_kernel(kernel, args))
        (entry_file,) = list(tmp_path.glob("*.trace"))
        blob = entry_file.read_bytes()
        entry_file.write_bytes(blob[: len(blob) // 2])
        fresh = JitDiskCache(tmp_path)
        assert fresh.lookup(key) is None
        assert fresh.corrupt == 1
        assert not entry_file.exists()

    def test_garbage_entry_is_dropped(self, tmp_path):
        garbage = tmp_path / ("ab" * 16 + ".trace")
        garbage.write_bytes(b"\x00\xff not a cache entry")
        cache = JitDiskCache(tmp_path)
        assert cache.entries() == []
        assert cache.corrupt == 1
        assert not garbage.exists()

    def test_corrupt_payload_never_raises_into_a_launch(self, tmp_path):
        kernel, args = _gs_setup()
        memo = TraceMemo()
        cache = jitcache.configure(tmp_path, memo=memo)
        trace = memo.trace(kernel, args)
        (entry_file,) = list(tmp_path.glob("*.trace"))
        head, _, _ = entry_file.read_bytes().partition(b"\n")
        entry_file.write_bytes(head + b"\n" + b"spam")
        cold = TraceMemo()
        jitcache.configure(tmp_path, memo=cold)
        # the corrupt entry degrades to a fresh trace, not an exception
        again = cold.trace(kernel, args)
        assert serialize_trace(again) == serialize_trace(trace)
        assert cold.misses == 1

    def test_concurrent_writers_racing_one_key(self, tmp_path):
        # two processes storing the same key concurrently must both
        # leave a complete, loadable entry (atomic write-then-rename)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "import numpy as np\n"
            "from repro.core.params import GrayScottParams\n"
            "from repro.core.stencil import kernel_args, "
            "make_gray_scott_kernel\n"
            "from repro.gpu.jit import TraceMemo, trace_kernel\n"
            "from repro.gpu.jitcache import JitDiskCache\n"
            "shape = (12, 12, 12)\n"
            "u, v = np.ones(shape, order='F'), np.ones(shape, order='F')\n"
            "un, vn = np.zeros(shape, order='F'), np.zeros(shape, order='F')\n"
            "kernel = make_gray_scott_kernel()\n"
            "args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, "
            "step=0)\n"
            "key = TraceMemo.signature(kernel, args)\n"
            "trace = trace_kernel(kernel, args)\n"
            f"cache = JitDiskCache({str(tmp_path)!r})\n"
            "for _ in range(25):\n"
            "    assert cache.store(key, kernel, trace)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        kernel, args = _gs_setup()
        key = TraceMemo.signature(kernel, args)
        cache = JitDiskCache(tmp_path)
        loaded = cache.lookup(key)
        assert loaded is not None
        assert cache.corrupt == 0
        assert serialize_trace(loaded) == serialize_trace(
            trace_kernel(kernel, args)
        )
        # no stray temp files left behind
        assert list(tmp_path.glob("*.tmp")) == []

    def test_lru_caps_entry_count(self, tmp_path):
        kernel, _ = _gs_setup()
        cache = JitDiskCache(tmp_path, max_entries=4)
        traces = {}
        keys = []
        for edge in range(8, 16):
            k, args = _gs_setup(edge)
            key = TraceMemo.signature(k, args)
            trace = trace_kernel(k, args)
            traces[key] = trace
            keys.append(key)
            cache.store(key, k, trace)
            # deterministic mtime ordering even on coarse clocks
            entry = cache.entry_path(canonical_key(key))
            os.utime(entry, (1_700_000_000 + edge, 1_700_000_000 + edge))
        assert cache.stats()["entries"] == 4
        assert cache.evicted == 4
        # stalest evicted, newest retained
        for key in keys[:4]:
            assert not cache.entry_path(canonical_key(key)).exists()
        for key in keys[4:]:
            assert cache.lookup(key) is not None

    def test_entries_reports_headers(self, tmp_path):
        kernel, args = _gs_setup()
        cache = JitDiskCache(tmp_path)
        cache.store(TraceMemo.signature(kernel, args), kernel,
                    trace_kernel(kernel, args))
        (header,) = cache.entries()
        assert header["schema"] == ENTRY_SCHEMA
        assert header["kernel"] == kernel.name
        assert header["bytes"] > 0

    def test_clear_removes_everything(self, tmp_path):
        kernel, args = _gs_setup()
        cache = JitDiskCache(tmp_path)
        cache.store(TraceMemo.signature(kernel, args), kernel,
                    trace_kernel(kernel, args))
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestKeyCanonicalization:
    def test_freeze_round_trips_json(self):
        kernel, args = _gs_setup()
        key = TraceMemo.signature(kernel, args)
        assert freeze_key(json.loads(canonical_key(key))) == key

    def test_config_key_round_trips(self):
        from repro.gpu.kernel import LaunchConfig

        kernel, args = _gs_setup()
        config = LaunchConfig(grid=(2, 2, 2), workgroup=(4, 4, 4))
        key = TraceMemo.signature(kernel, args, config)
        assert freeze_key(json.loads(canonical_key(key))) == key


class TestTieredMemo:
    def test_tier_ladder(self, tmp_path):
        kernel, args = _gs_setup()
        memo = TraceMemo()
        jitcache.configure(tmp_path, memo=memo)
        memo.trace(kernel, args)   # cold: trace tier, persists
        memo.trace(kernel, args)   # hot: memo tier
        assert memo.tiers == {
            "interpret": 0, "trace": 1, "memo": 1, "disk": 0,
        }
        cold = TraceMemo()
        jitcache.configure(tmp_path, memo=cold)
        cold.trace(kernel, args)   # cold memo, warm disk: disk tier
        cold.trace(kernel, args)   # promoted: memo tier
        assert cold.tiers == {
            "interpret": 0, "trace": 0, "memo": 1, "disk": 1,
        }
        assert cold.stats["disk_hits"] == 1

    def test_disk_promotion_is_bit_identical(self, tmp_path):
        kernel, args = _gs_setup()
        memo = TraceMemo()
        jitcache.configure(tmp_path, memo=memo)
        first = memo.trace(kernel, args)
        cold = TraceMemo()
        jitcache.configure(tmp_path, memo=cold)
        assert serialize_trace(cold.trace(kernel, args)) == \
            serialize_trace(first)

    def test_tier_counters_exported_through_observe(self, tmp_path):
        from repro.observe import trace as observe

        kernel, args = _gs_setup()
        memo = TraceMemo()
        jitcache.configure(tmp_path, memo=memo)
        with observe.session() as tracer:
            memo.trace(kernel, args)
            memo.trace(kernel, args)
            trace_n = tracer.metrics.counter_value("gpu.jit.tier", tier="trace")
            memo_n = tracer.metrics.counter_value("gpu.jit.tier", tier="memo")
        assert trace_n == 1
        assert memo_n == 1


class TestWarmStart:
    def test_warm_start_preloads_into_memo(self, tmp_path):
        kernel, args = _gs_setup()
        seed = TraceMemo()
        jitcache.configure(tmp_path, memo=seed)
        seed.trace(kernel, args)

        warm = TraceMemo()
        stats = jitcache.warm_start(tmp_path, memo=warm)
        assert stats["preloaded"] == 1
        warm.trace(kernel, args)
        # first launch is already a memo hit — no trace, no disk read
        assert warm.tiers == {
            "interpret": 0, "trace": 0, "memo": 1, "disk": 0,
        }

    def test_configure_sets_process_path(self, tmp_path):
        assert jitcache.configured_path() is None
        jitcache.configure(tmp_path)
        try:
            assert jitcache.configured_path() == str(tmp_path)
        finally:
            jitcache.deconfigure()
        assert jitcache.configured_path() is None

    def test_private_memo_configure_leaves_process_path_alone(self, tmp_path):
        memo = TraceMemo()
        jitcache.configure(tmp_path, memo=memo)
        assert jitcache.configured_path() is None
        jitcache.deconfigure(memo=memo)
        assert memo.disk is None


def _trace_bytes_task(edge: int) -> bytes:
    """Module-level task (pickles into spawn workers): first-launch bytes."""
    from repro.gpu.jit import trace_memo

    kernel, args = _gs_setup(edge)
    return serialize_trace(trace_memo().trace(kernel, args))


class TestFleetBitIdentity:
    def test_jobs1_vs_jobs4_traces_bit_identical(self, tmp_path):
        # the satellite contract: worker processes answering first
        # launches through the persistent cache produce byte-for-byte
        # the traces a serial run produces
        from repro.par.pool import run_tasks

        jitcache.configure(tmp_path)
        try:
            edges = [8, 9, 10, 11, 8, 9, 10, 11]
            serial = run_tasks(_trace_bytes_task, edges, jobs=1)
            parallel = run_tasks(_trace_bytes_task, edges, jobs=4)
        finally:
            jitcache.deconfigure()
        assert serial == parallel
        # the cache now holds one plan per distinct specialization
        assert JitDiskCache(tmp_path).stats()["entries"] == 4

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_worker_pool_workers_warm_start(self, tmp_path):
        # pool workers preload the configured cache on spawn: a
        # worker's first launch returns the persisted plan's bytes
        from repro.par import WorkerPool

        kernel, args = _gs_setup(9)
        seed = TraceMemo()
        jitcache.configure(tmp_path, memo=seed)
        expected = serialize_trace(seed.trace(kernel, args))
        jitcache.deconfigure(memo=seed)

        with WorkerPool(_trace_bytes_task, workers=2,
                        jit_cache=str(tmp_path)) as pool:
            results = [pool.submit(9).result(timeout=60) for _ in range(2)]
        assert all(r == expected for r in results)
