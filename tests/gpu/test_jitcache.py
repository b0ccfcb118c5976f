"""The JIT disk cache of compiled kernel objects (repro.gpu.jitcache).

Covers the directory (atomic writes, racing writers, corrupt and
truncated objects, the LRU cap, stats and clear), configure and its
backfill of objects compiled before it, the kernel part of the trace
memo key, the memo's tier counts, and the jobs=1 vs jobs=4 bit-identity
contract through a configured cache.
"""

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
from repro.gpu.jit import TraceMemo, trace_memo
from repro.gpu.jitcache import JitCacheError, JitDiskCache
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.ir import lower
from repro.util.errors import LaunchError

ROOT = Path(__file__).resolve().parents[2]
SOURCE = "double twice(double x) { return 2.0 * x; }\n"


def _gs_setup(edge=12):
    shape = (edge, edge, edge)
    u = np.ones(shape, order="F")
    v = np.ones(shape, order="F")
    un = np.zeros(shape, order="F")
    vn = np.zeros(shape, order="F")
    kernel = make_gray_scott_kernel()
    args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=0)
    return kernel, args


def _step(edge: int) -> bytes:
    """One Gray-Scott launch over random fields; the bytes it stores."""
    rng = np.random.default_rng(edge)
    u, v = (np.asfortranarray(rng.random((edge,) * 3)) for _ in range(2))
    un, vn = np.zeros_like(u), np.zeros_like(v)
    make_gray_scott_kernel().execute(
        LaunchConfig.for_domain((edge,) * 3, (4, 4, 4)),
        kernel_args(u, v, un, vn, GrayScottParams(), seed=3, step=1))
    return un.tobytes() + vn.tobytes()


@pytest.fixture
def fresh(monkeypatch):
    """An empty object table and trace memo, and no cache configured."""
    monkeypatch.setattr(jitcache, "_NATIVE", {})
    trace_memo().clear()
    yield
    jitcache.deconfigure()
    trace_memo().clear()


class Compiles:
    """The real compile step, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, source):
        def build(tmp):
            self.calls += 1
            return lower._compile(source, tmp, "test")
        return build


def _refuse(tmp):
    raise AssertionError("compiled although the cache holds the object")


def _twice(lib) -> float:
    import ctypes

    fn = lib["twice"]
    fn.argtypes, fn.restype = [ctypes.c_double], ctypes.c_double
    return fn(2.5)


class TestFingerprint:
    """The kernel part of the memo key: name, body, and codegen flags."""

    def test_stable_within_process(self):
        kernel, args = _gs_setup()
        assert TraceMemo.signature(kernel, args) == TraceMemo.signature(kernel, args)

    def test_identical_source_same_fingerprint(self):
        # two kernel objects over one body key identically
        a = make_gray_scott_kernel()
        b = make_gray_scott_kernel()
        assert a is not b
        assert TraceMemo.signature(a, ())[0] == TraceMemo.signature(b, ())[0]

    def test_cross_process_key_is_stable(self, fresh, tmp_path):
        # the object name must spell identically in a new interpreter
        # with another hash seed, or every warm start would compile
        script = (
            "import sys\n"
            "from repro.gpu import jitcache\n"
            "from tests.gpu.test_jitcache import _step\n"
            "jitcache.configure(sys.argv[1])\n"
            "_step(8)\n"
        )
        env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
        for seed in ("1", "2"):
            subprocess.run([sys.executable, "-c", script, str(tmp_path / seed)],
                           env=dict(env, PYTHONHASHSEED=seed), check=True, timeout=120)
        jitcache.configure(tmp_path / "here")
        _step(8)
        names = {tuple(f.name for f in (tmp_path / d).glob("*.so")) for d in ("1", "2", "here")}
        assert len(names) == 1 and len(names.pop()) == 1

    def test_different_kernels_differ(self):
        assert TraceMemo.signature(make_gray_scott_kernel(), ())[0] != \
            TraceMemo.signature(make_laplacian_kernel(), ())[0]


class TestDiskCache:
    def test_round_trip(self, fresh, tmp_path):
        compiles = Compiles()
        jitcache.configure(tmp_path / "cache")
        assert _twice(jitcache.load(SOURCE, compiles(SOURCE))) == 5.0
        assert compiles.calls == 1
        (obj,) = (tmp_path / "cache").glob("*.so")
        jitcache._NATIVE.clear()  # as in a new process
        assert _twice(jitcache.load(SOURCE, _refuse)) == 5.0
        assert obj.name == JitDiskCache(tmp_path / "cache").entries()[0]["file"]

    def test_lookup_miss_counts(self, fresh, tmp_path):
        # a source missing from the directory compiles once per process
        compiles = Compiles()
        jitcache.configure(tmp_path)
        for _ in range(3):
            jitcache.load(SOURCE, compiles(SOURCE))
        assert compiles.calls == 1

    def test_unwritable_directory_raises(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(JitCacheError, match="cannot create"):
            JitDiskCache(blocker / "cache")
        with pytest.raises(JitCacheError, match="is not a directory"):
            JitDiskCache(blocker)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        with pytest.raises(JitCacheError, match="is not writable"):
            JitDiskCache(tmp_path)

    def test_kernel_source_edit_invalidates(self, fresh, tmp_path):
        # another source is another object: an old one is never served
        other = SOURCE.replace("2.0", "3.0")
        compiles = Compiles()
        jitcache.configure(tmp_path)
        assert _twice(jitcache.load(SOURCE, compiles(SOURCE))) == 5.0
        assert _twice(jitcache.load(other, compiles(other))) == 7.5
        assert compiles.calls == 2
        assert len(list(tmp_path.glob("*.so"))) == 2

    def _populate(self, tmp_path) -> Path:
        jitcache.configure(tmp_path)
        jitcache.load(SOURCE, Compiles()(SOURCE))
        jitcache._NATIVE.clear()
        (obj,) = tmp_path.glob("*.so")
        return obj

    def test_truncated_entry_is_dropped(self, fresh, tmp_path):
        # a truncated object would fault inside dlopen: it is compiled over
        obj = self._populate(tmp_path)
        whole = obj.read_bytes()
        obj.write_bytes(whole[: len(whole) // 2])
        compiles = Compiles()
        assert _twice(jitcache.load(SOURCE, compiles(SOURCE))) == 5.0
        assert compiles.calls == 1
        assert obj.read_bytes() == whole

    def test_garbage_entry_is_dropped(self, fresh, tmp_path):
        obj = self._populate(tmp_path)
        obj.write_bytes(b"\x00\xff not a shared object")
        compiles = Compiles()
        assert _twice(jitcache.load(SOURCE, compiles(SOURCE))) == 5.0
        assert compiles.calls == 1
        assert obj.read_bytes()[:4] == b"\x7fELF"

    def test_corrupt_payload_never_raises_into_a_launch(self, fresh, tmp_path):
        jitcache.configure(tmp_path)
        cold = _step(9)
        (obj,) = tmp_path.glob("*.so")
        obj.write_bytes(b"spam" * 16 + obj.read_bytes()[64:])  # a bad ELF header
        jitcache._NATIVE.clear()
        trace_memo().clear()
        assert _step(9) == cold
        assert obj.read_bytes()[:4] == b"\x7fELF"

    def test_concurrent_writers_racing_one_key(self, fresh, tmp_path):
        # two processes compiling and publishing one source at once both
        # leave one complete, loadable object (write, then rename)
        script = (
            "from repro.gpu import jitcache\n"
            "from repro.ir import lower\n"
            f"source = {SOURCE!r}\n"
            f"cache = jitcache.configure({str(tmp_path)!r})\n"
            "for _ in range(10):\n"
            "    jitcache._NATIVE.clear()\n"
            "    jitcache.load(source, lambda tmp: lower._compile(source, tmp, 'race'))\n"
            "    for digest, (_, blob) in jitcache._NATIVE.items():\n"
            "        cache.put(digest, blob)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        assert len(list(tmp_path.glob("*.so"))) == 1
        assert list(tmp_path.glob("*.tmp")) == []
        jitcache.configure(tmp_path)
        assert _twice(jitcache.load(SOURCE, _refuse)) == 5.0

    def test_lru_caps_entry_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jitcache, "MAX_ENTRIES", 4)
        cache = JitDiskCache(tmp_path)
        digests = [f"{n:02x}" * 32 for n in range(8)]
        for n, digest in enumerate(digests):
            cache.put(digest, b"object %d" % n)
            # deterministic mtime ordering even on coarse clocks
            os.utime(cache.object_path(digest), (1_700_000_000 + n,) * 2)
        assert cache.stats()["objects"] == 4
        # stalest evicted, newest retained
        assert [e["file"] for e in cache.entries()] == [
            cache.object_path(d).name for d in digests[4:]]

    def test_entries_reports_headers(self, tmp_path):
        cache = JitDiskCache(tmp_path)
        cache.put("ab" * 32, b"0123456789")
        assert cache.entries() == [{"file": "ab" * 16 + ".so", "bytes": 10}]
        assert cache.stats() == {"path": str(tmp_path), "objects": 1, "bytes": 10,
                                 "cap": jitcache.MAX_ENTRIES}

    def test_clear_removes_everything(self, tmp_path):
        cache = JitDiskCache(tmp_path)
        for n in range(3):
            cache.put(f"{n:02x}" * 32, b"object")
        assert cache.clear() == 3
        assert list(tmp_path.glob("*.so")) == []
        assert cache.stats()["objects"] == 0


def _double_body(ctx, a, extra):
    i, j, k = ctx.global_idx()
    a[i, j, k] = a[i, j, k] * 2.0


class TestTieredMemo:
    def test_tier_ladder(self):
        kernel, args = _gs_setup()
        memo = TraceMemo()
        memo.trace(kernel, args)   # cold: trace tier
        memo.trace(kernel, args)   # hot: memo tier
        assert memo.tiers == {"trace": 1, "memo": 1}
        unkeyable = Kernel("unkeyable", _double_body)
        with pytest.raises(LaunchError, match=r"argument 1 \(\[1\],\) is unhashable"):
            memo.trace(unkeyable, (args[0], ([1],)))  # an unhashable tuple: no key
        assert memo.tiers == {"trace": 1, "memo": 1}
        assert memo.stats == {"hits": 1, "misses": 1, "entries": 1}

    def test_disk_promotion_is_bit_identical(self, fresh, tmp_path, monkeypatch):
        # a launch through an object loaded from the directory, with no
        # compiler on PATH, stores the bytes the compiling launch stored
        jitcache.configure(tmp_path)
        cold = _step(10)
        jitcache._NATIVE.clear()
        trace_memo().clear()
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        assert _step(10) == cold

    def test_tier_counters_exported_through_observe(self):
        from repro.observe import trace as observe

        kernel, args = _gs_setup()
        memo = TraceMemo()
        with observe.session() as tracer:
            memo.trace(kernel, args)
            memo.trace(kernel, args)
            trace_n = tracer.metrics.counter_value("gpu.jit.tier", tier="trace")
            memo_n = tracer.metrics.counter_value("gpu.jit.tier", tier="memo")
        assert trace_n == 1
        assert memo_n == 1


class TestWarmStart:
    def test_configure_sets_process_path(self, tmp_path):
        assert jitcache.configured_path() is None
        jitcache.configure(tmp_path)
        try:
            assert jitcache.configured_path() == str(tmp_path)
        finally:
            jitcache.deconfigure()
        assert jitcache.configured_path() is None

    def test_configure_writes_objects_compiled_before_it(self, fresh, tmp_path):
        # compile with no cache, then configure: the object lands in the
        # directory, and a new process without a compiler loads it
        cold = _step(8)
        assert list(tmp_path.glob("*.so")) == []
        jitcache.configure(tmp_path / "cache")
        assert len(list((tmp_path / "cache").glob("*.so"))) == 1
        bindir = tmp_path / "bin"
        bindir.mkdir()
        (bindir / "python").symlink_to(sys.executable)
        script = (
            "import sys\n"
            "from repro.gpu import jitcache\n"
            "from tests.gpu.test_jitcache import _step\n"
            f"jitcache.configure({str(tmp_path / 'cache')!r})\n"
            "sys.stdout.buffer.write(_step(8))\n"
        )
        done = subprocess.run(
            [str(bindir / "python"), "-c", script], capture_output=True, timeout=120, cwd=tmp_path,
            env=dict(os.environ, PATH=str(bindir),
                     PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}"))
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == cold


def _step_task(edge: int) -> bytes:
    """Module-level task (pickles into spawn workers): one launch's bytes."""
    return _step(edge)


class TestFleetBitIdentity:
    def test_jobs1_vs_jobs4_traces_bit_identical(self, fresh, tmp_path):
        # worker processes launching through the configured cache store
        # byte-for-byte what a serial run stores
        from repro.par.pool import run_tasks

        jitcache.configure(tmp_path)
        edges = [8, 9, 10, 11, 8, 9, 10, 11]
        serial = run_tasks(_step_task, edges, jobs=1)
        parallel = run_tasks(_step_task, edges, jobs=4)
        assert serial == parallel
        # every shape runs the one source, so the cache holds one object
        assert JitDiskCache(tmp_path).stats()["objects"] == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_worker_pool_workers_warm_start(self, fresh, tmp_path, monkeypatch):
        # pool workers configure the cache on spawn: without a compiler on
        # PATH, their first launch loads the object the parent compiled
        from repro.par import WorkerPool

        jitcache.configure(tmp_path)
        expected = _step(9)
        jitcache.deconfigure()
        jitcache._NATIVE.clear()
        trace_memo().clear()
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        with WorkerPool(_step_task, workers=2, context="fork",
                        jit_cache=str(tmp_path)) as pool:
            results = [pool.submit(9).result(timeout=60) for _ in range(2)]
        assert results == [expected, expected]
