import numpy as np
import pytest

from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.gpu.rocprof import device_events
from repro.mpi.executor import run_spmd
from repro.observe import trace as observe
from repro.util.errors import ConfigError
from tests.oracles.gather import gather_global


def _settings(**kwargs):
    defaults = dict(L=12, steps=6, noise=0.05, seed=11)
    defaults.update(kwargs)
    return GrayScottSettings(**defaults)


def _traced_run(settings, steps):
    """The spans of a serial run of ``steps`` steps."""
    with observe.session() as tracer:
        Simulation(settings).run(steps)
    return tracer.spans


def _device_seconds(spans) -> dict[str, float]:
    """Modeled device seconds per event kind."""
    seconds = {"kernel": 0.0, "copy": 0.0, "compile": 0.0}
    for kind, span in device_events(spans):
        seconds[kind] += span.seconds
    return seconds


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
        full = gather_global(sim, "u")
        assert full.shape == (12, 12, 12)
        assert np.array_equal(full, sim.interior("u"))


class TestParallelSimulation:
    @pytest.mark.parametrize("nranks,dims", [(2, None), (8, None), (4, (1, 2, 2))])
    def test_matches_serial_bitwise(self, nranks, dims):
        settings = _settings(steps=6)
        serial = Simulation(settings)
        serial.run(6)
        ref_u = gather_global(serial, "u")
        ref_v = gather_global(serial, "v")

        def worker(comm):
            sim = Simulation(settings, comm, cart_dims=dims)
            sim.run(6)
            return gather_global(sim, "u"), gather_global(sim, "v")

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

    def test_device_spans_populated(self):
        seconds = _device_seconds(_traced_run(_settings(backend="julia"), 3))
        assert seconds["kernel"] > 0
        assert seconds["compile"] > 10  # one-time JIT
        assert seconds["copy"] > 0

    def test_hip_has_no_compile_cost(self):
        seconds = _device_seconds(_traced_run(_settings(backend="hip"), 2))
        assert seconds["compile"] == 0.0

    def test_cpu_has_no_device_spans(self):
        assert device_events(_traced_run(_settings(), 1)) == []

    def test_parallel_gpu_matches_serial_cpu(self):
        settings = _settings(steps=3, backend="julia")
        cpu = Simulation(_settings(steps=3))
        cpu.run(3)
        expected = gather_global(cpu, "u")

        def worker(comm):
            sim = Simulation(settings, comm)
            sim.run(3)
            return gather_global(sim, "u")

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
        expected = gather_global(serial, "v")

        def worker(comm):
            sim = Simulation(settings, comm, cart_dims=dims)
            sim.run(5)
            return gather_global(sim, "v")

        got = run_spmd(worker, nranks, timeout=180)[0]
        assert np.array_equal(expected, got)


class TestStepSpans:
    @staticmethod
    def _sections(spans, rank=0):
        return [
            s.name for s in spans
            if s.process == f"rank{rank}" and s.name.startswith("step.")
        ]

    def test_sections_per_step(self):
        spans = _traced_run(_settings(), 5)
        # the initialize() exchange is outside the stepping loop and
        # not a step section; each step adds one of each
        assert self._sections(spans) == ["step.exchange", "step.compute"] * 5
        assert all(s.seconds > 0 for s in spans if s.name == "step.compute")

    def test_sections_per_rank_in_parallel(self):
        def worker(comm):
            Simulation(_settings(), comm).run(3)

        with observe.session() as tracer:
            run_spmd(worker, 2, timeout=60)
        for rank in (0, 1):
            assert self._sections(tracer.spans, rank) == [
                "step.exchange", "step.compute"
            ] * 3
