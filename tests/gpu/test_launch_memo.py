"""One signature per launch: the compiled kernel, its lowering and its
modeled cost are looked up under it, and the cost memo is exact."""

import inspect
import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.cli import main
from repro.core.stencil import kernel_args, make_gray_scott_kernel, make_laplacian_kernel
from repro.gpu import jit
from repro.gpu.jit import TraceMemo
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.memory import Device
from repro.gpu.perf import RooflineModel
from repro.gpu.rocprof import Profiler
from repro.ir import lower
from repro.mpi.executor import run_spmd


def _run(nranks: int) -> list[tuple]:
    """(profiler events, final device clock, step timings) per rank."""
    settings = GrayScottSettings(L=12, steps=5, noise=0.05, seed=3, backend="julia")

    def worker(comm):
        sim = Simulation(settings, comm, profiler=Profiler())
        sim.run(5)
        return sim.device.profiler.events, sim.device.clock.now, sim.timings()

    if nranks == 1:
        return [worker(None)]
    return run_spmd(worker, nranks, timeout=120)


class TestCostMemoIsExact:
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_matches_a_run_that_prices_every_launch(self, nranks, monkeypatch):
        memoized = _run(nranks)
        price = RooflineModel.launch_cost

        def cleared(self, *args, **kwargs):
            self._costs.clear()
            return price(self, *args, **kwargs)

        monkeypatch.setattr(RooflineModel, "launch_cost", cleared)
        assert _run(nranks) == memoized
        kinds = Counter(event.kind for events, _, _ in memoized for event in events)
        assert kinds["kernel"] == 5 * nranks and kinds["compile"] == nranks
        assert kinds["copy"] > 0


def _gs_args(device, shape=(10, 10, 10), step=0):
    u, v, un, vn = (device.to_device(np.ones(shape, order="F"), name=n)
                    for n in ("u", "v", "u_new", "v_new"))
    return kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=step)


def _counting(monkeypatch, calls, owner, name, static=False):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(counted) if static else counted)


class TestSteadyLaunch:
    def test_one_signature_and_no_repricing(self, monkeypatch):
        device = Device(backend="julia")
        kernel = make_gray_scott_kernel()
        config = LaunchConfig.for_domain((10, 10, 10), (10, 1, 1))
        first = device.launch(kernel, config.grid, config.workgroup, _gs_args(device))
        args = _gs_args(device, step=1)

        calls = Counter()
        _counting(monkeypatch, calls, TraceMemo, "signature", static=True)
        _counting(monkeypatch, calls, TraceMemo, "trace")
        _counting(monkeypatch, calls, RooflineModel, "traffic")
        _counting(monkeypatch, calls, RooflineModel, "effective_sizes")
        _counting(monkeypatch, calls, lower, "lower")
        executed = Counter()
        execute = Kernel.execute

        def counted_execute(self, *a, **kw):
            executed["execute"] += 1
            return execute(self, *a, **kw)

        monkeypatch.setattr(Kernel, "execute", counted_execute)
        again = device.launch(kernel, config.grid, config.workgroup, args)
        assert calls == {"signature": 1}
        assert executed == {"execute": 1}
        assert again is first

    def test_fresh_kernel_instance_reuses_the_fingerprint(self, monkeypatch):
        expected = TraceMemo.signature(make_gray_scott_kernel(), ())

        def no_source(obj):
            raise AssertionError("the fingerprint read the kernel source again")

        monkeypatch.setattr(inspect, "getsource", no_source)
        assert TraceMemo.signature(make_gray_scott_kernel(), ()) == expected


class TestFreshCost:
    """A launch whose signature differs is priced, never served stale."""

    @staticmethod
    def _launch(device, kernel, shape, dtype=np.float64, workgroup=(4, 1, 1)):
        var = device.to_device(np.ones(shape, dtype=dtype, order="F"), name="var")
        out = device.to_device(np.zeros(shape, dtype=dtype, order="F"), name="out")
        config = LaunchConfig.for_domain(tuple(reversed(shape)), workgroup)
        return device.launch(kernel, config.grid, config.workgroup,
                             (var, out, shape, 0.2, 1.0))

    @pytest.mark.parametrize("variant", [
        dict(shape=(8, 8, 12)),
        dict(shape=(8, 8, 8), dtype=np.float32),
        dict(shape=(8, 8, 8), workgroup=(3, 1, 1)),
    ], ids=["shape", "dtype", "config"])
    def test_new_signature_is_priced(self, variant, monkeypatch):
        device = Device(backend="julia")
        kernel = make_laplacian_kernel()
        base = self._launch(device, kernel, (8, 8, 8))
        calls = Counter()
        _counting(monkeypatch, calls, RooflineModel, "traffic")
        cost = self._launch(device, kernel, **variant)
        assert calls == {"traffic": 1}
        assert cost == self._launch(Device(backend="julia"), kernel, **variant)
        assert cost != base

    def test_replaced_roofline_prices_again(self, monkeypatch):
        device = Device(backend="julia")
        kernel = make_laplacian_kernel()
        analytic = self._launch(device, kernel, (8, 8, 8))
        device.roofline = RooflineModel(device.spec, device.backend, counter_mode="trace")
        calls = Counter()
        _counting(monkeypatch, calls, RooflineModel, "traffic")
        traced = self._launch(device, kernel, (8, 8, 8))
        assert calls == {"traffic": 1}
        assert traced != analytic


class TestConcurrentMiss:
    """Rank threads that miss one cold signature at once trace it and
    lower it once; the others answer from the memo tier."""

    def test_threads_trace_and_lower_once(self, monkeypatch):
        monkeypatch.setattr(jit, "_TRACE_MEMO", TraceMemo())
        calls = Counter()
        _counting(monkeypatch, calls, jit, "trace_kernel")
        _counting(monkeypatch, calls, lower, "lower")
        kernel = make_gray_scott_kernel()
        config = LaunchConfig.for_domain((10, 10, 10), (10, 1, 1))
        nthreads = 4
        devices = [Device(backend="julia") for _ in range(nthreads)]
        launches = [_gs_args(device) for device in devices]
        barrier = threading.Barrier(nthreads)

        def rank(t):
            barrier.wait()
            devices[t].launch(kernel, config.grid, config.workgroup, launches[t])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=rank, args=(t,)) for t in range(nthreads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert calls == {"trace_kernel": 1, "lower": 1}
        assert jit.trace_memo().tiers == {"interpret": 0, "trace": 1, "memo": 3, "disk": 0}

    def test_four_rank_run_reads_one_trace(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "s.json"
        GrayScottSettings(
            L=12, steps=4, plotgap=2, backend="julia", ranks=4,
            output=str(tmp_path / "o.bp"),
        ).save(path)
        for attempt in range(3):
            monkeypatch.setattr(jit, "_TRACE_MEMO", TraceMemo())
            out = tmp_path / f"m{attempt}.json"
            assert main(["run", str(path), "--metrics-out", str(out)]) == 0
            tiers = {c["labels"]["tier"]: c["value"]
                     for c in json.loads(out.read_text())["counters"]
                     if c["name"] == "gpu.jit.tier"}
            assert tiers == {"trace": 1, "memo": 3}
        capsys.readouterr()
