from dataclasses import astuple

import numpy as np
import pytest

from repro.core.insitu import InSituMonitor
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.mpi.executor import run_spmd
from repro.util.errors import ConfigError


def _settings(**kwargs):
    defaults = dict(L=12, steps=0, noise=0.02, seed=3)
    defaults.update(kwargs)
    return GrayScottSettings(**defaults)


class TestInSituMonitor:
    def test_collects_every_step(self):
        sim = Simulation(_settings())
        monitor = InSituMonitor()
        sim.run(5, on_step=monitor)
        series = monitor.series("v")
        assert [s.step for s in series] == [1, 2, 3, 4, 5]

    def test_every_n(self):
        sim = Simulation(_settings())
        monitor = InSituMonitor(every=3)
        sim.run(9, on_step=monitor)
        assert [s.step for s in monitor.series("u")] == [3, 6, 9]

    def test_stats_are_global_truth(self):
        sim = Simulation(_settings())
        monitor = InSituMonitor()
        sim.run(2, on_step=monitor)
        last = monitor.series("v")[-1]
        data = sim.interior("v")
        assert last.vmin == data.min()
        assert last.vmax == data.max()
        assert last.mean == pytest.approx(data.mean())
        assert last.l2 == pytest.approx(np.sqrt((data**2).mean()))

    def test_parallel_equals_serial(self):
        settings = _settings()
        serial = Simulation(settings)
        serial_monitor = InSituMonitor()
        serial.run(4, on_step=serial_monitor)
        expected = [astuple(s) for s in serial_monitor.series("v")]

        def worker(comm):
            sim = Simulation(settings, comm)
            monitor = InSituMonitor()
            sim.run(4, on_step=monitor)
            return [astuple(s) for s in monitor.series("v")]

        for got in run_spmd(worker, 8, timeout=120):
            for (s1, lo1, hi1, m1, l1), (s2, lo2, hi2, m2, l2) in zip(expected, got):
                assert s1 == s2
                assert lo1 == lo2 and hi1 == hi2
                assert m1 == pytest.approx(m2, rel=1e-12)
                assert l1 == pytest.approx(l2, rel=1e-12)

    def test_render(self):
        sim = Simulation(_settings())
        monitor = InSituMonitor()
        sim.run(2, on_step=monitor)
        assert "in-situ series of V" in monitor.render("v")

    def test_validation(self):
        with pytest.raises(ConfigError):
            InSituMonitor(every=0)
        with pytest.raises(ConfigError):
            InSituMonitor(fields=("u", "w"))
        monitor = InSituMonitor(fields=("u",))
        with pytest.raises(ConfigError):
            monitor.series("v")
