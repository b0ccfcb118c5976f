import numpy as np
import pytest

from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.gpu.rocprof import Profiler
from repro.mpi.executor import run_spmd
from repro.util.errors import ConfigError


def _settings(**kwargs):
    defaults = dict(L=12, steps=6, noise=0.05, seed=11)
    defaults.update(kwargs)
    return GrayScottSettings(**defaults)


class TestSerialSimulation:
    def test_initial_condition(self):
        sim = Simulation(_settings())
        u = sim.interior("u")
        v = sim.interior("v")
        assert u.max() == 1.0 and u.min() == 0.25
        assert v.max() == 0.33 and v.min() == 0.0
        # centred seed box
        assert u[6, 6, 6] == 0.25
        assert v[6, 6, 6] == 0.33
        assert u[0, 0, 0] == 1.0

    def test_run_advances_steps(self):
        sim = Simulation(_settings())
        sim.run(4)
        assert sim.step_count == 4

    def test_run_default_steps_from_settings(self):
        sim = Simulation(_settings(steps=3))
        sim.run()
        assert sim.step_count == 3

    def test_on_step_hook(self):
        sim = Simulation(_settings())
        seen = []
        sim.run(3, on_step=lambda s: seen.append(s.step_count))
        assert seen == [1, 2, 3]

    def test_fields_stay_bounded(self):
        sim = Simulation(_settings(noise=0.0))
        sim.run(50)
        u = sim.interior("u")
        v = sim.interior("v")
        assert np.isfinite(u).all() and np.isfinite(v).all()
        assert -0.5 < u.min() and u.max() < 2.0
        assert -0.5 < v.min() and v.max() < 2.0

    def test_deterministic_given_seed(self):
        a = Simulation(_settings())
        b = Simulation(_settings())
        a.run(5)
        b.run(5)
        assert np.array_equal(a.u, b.u)

    def test_seed_changes_noise(self):
        a = Simulation(_settings(seed=1))
        b = Simulation(_settings(seed=2))
        a.run(3)
        b.run(3)
        assert not np.array_equal(a.u, b.u)

    def test_float32_precision(self):
        sim = Simulation(_settings(precision="float32"))
        sim.run(2)
        assert sim.u.dtype == np.float32

    def test_diagnostics(self):
        sim = Simulation(_settings())
        u = sim.interior("u")
        assert (u.min(), u.max()) == (0.25, 1.0)
        assert 0.0 < sim.interior("v").mean() < 0.33

    def test_serial_cart_dims_must_be_unit(self):
        with pytest.raises(ConfigError):
            Simulation(_settings(), cart_dims=(2, 1, 1))

    def test_gather_global_serial(self):
        sim = Simulation(_settings())
        full = sim.gather_global("u")
        assert full.shape == (12, 12, 12)
        assert np.array_equal(full, sim.interior("u"))


class TestParallelSimulation:
    @pytest.mark.parametrize("nranks,dims", [(2, None), (8, None), (4, (1, 2, 2))])
    def test_matches_serial_bitwise(self, nranks, dims):
        settings = _settings(steps=6)
        serial = Simulation(settings)
        serial.run(6)
        ref_u = serial.gather_global("u")
        ref_v = serial.gather_global("v")

        def worker(comm):
            sim = Simulation(settings, comm, cart_dims=dims)
            sim.run(6)
            return sim.gather_global("u"), sim.gather_global("v")

        results = run_spmd(worker, nranks, timeout=120)
        par_u, par_v = results[0]
        assert np.array_equal(ref_u, par_u)
        assert np.array_equal(ref_v, par_v)


class TestGpuBackends:
    @pytest.mark.parametrize("backend", ["julia", "hip"])
    def test_matches_cpu_bitwise(self, backend):
        cpu = Simulation(_settings())
        cpu.run(4)
        gpu = Simulation(_settings(backend=backend))
        gpu.run(4)
        assert np.array_equal(cpu.u, gpu.u)
        assert np.array_equal(cpu.v, gpu.v)

    def test_timings_populated(self):
        profiler = Profiler()
        sim = Simulation(_settings(backend="julia"), profiler=profiler)
        sim.run(3)
        t = sim.timings()
        assert t.kernel_seconds > 0
        assert t.compile_seconds > 10  # one-time JIT
        assert t.transfer_seconds > 0

    def test_hip_has_no_compile_cost(self):
        profiler = Profiler()
        sim = Simulation(_settings(backend="hip"), profiler=profiler)
        sim.run(2)
        assert sim.timings().compile_seconds == 0.0

    def test_cpu_timings_zero(self):
        sim = Simulation(_settings())
        sim.run(1)
        t = sim.timings()
        assert t.kernel_seconds == t.compile_seconds == 0.0

    def test_parallel_gpu_matches_serial_cpu(self):
        settings = _settings(steps=3, backend="julia")
        cpu = Simulation(_settings(steps=3))
        cpu.run(3)
        expected = cpu.gather_global("u")

        def worker(comm):
            sim = Simulation(settings, comm)
            sim.run(3)
            return sim.gather_global("u")

        got = run_spmd(worker, 2, timeout=120)[0]
        assert np.array_equal(expected, got)


class TestNonPowerOfTwoDecompositions:
    @pytest.mark.parametrize("nranks,dims", [
        (3, (1, 1, 3)),
        (6, (3, 2, 1)),
        (12, (3, 2, 2)),
    ])
    def test_matches_serial_bitwise(self, nranks, dims):
        settings = _settings(steps=5)
        serial = Simulation(settings)
        serial.run(5)
        expected = serial.gather_global("v")

        def worker(comm):
            sim = Simulation(settings, comm, cart_dims=dims)
            sim.run(5)
            return sim.gather_global("v")

        got = run_spmd(worker, nranks, timeout=180)[0]
        assert np.array_equal(expected, got)


class TestWallStats:
    def test_sections_accumulate_per_step(self):
        sim = Simulation(_settings())
        sim.run(5)
        # the initialize() exchange is outside the stepping loop and
        # not wall-accounted; each step adds one of each section
        assert sim.wall.counts["exchange"] == 5
        assert sim.wall.counts["compute"] == 5
        assert sim.wall.totals["compute"] > 0

    def test_exchange_counted_in_parallel(self):
        def worker(comm):
            sim = Simulation(_settings(), comm)
            sim.run(3)
            return sim.wall.counts["exchange"], sim.wall.counts["compute"]

        for exchange, compute in run_spmd(worker, 2, timeout=60):
            assert (exchange, compute) == (3, 3)
