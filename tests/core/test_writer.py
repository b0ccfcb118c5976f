import numpy as np

from repro.adios.engines import BP5Reader
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.core.writer import SimulationWriter
from repro.mpi.executor import run_spmd
from tests.oracles.gather import gather_global


def _settings(tmp_path, **kwargs):
    defaults = dict(L=12, steps=4, noise=0.05, output=str(tmp_path / "out.bp"))
    defaults.update(kwargs)
    return GrayScottSettings(**defaults)


class TestSerialWriter:
    def test_writes_fields_and_step(self, tmp_path):
        settings = _settings(tmp_path)
        sim = Simulation(settings)
        with SimulationWriter(sim) as writer:
            writer.write()
            sim.run(2)
            writer.write()
        reader = BP5Reader(None, settings.output)
        assert reader.nsteps == 2
        u = reader.read("U", step=1)
        assert np.array_equal(u, sim.interior("u"))
        assert reader.scalar_series("step") == [0, 2]

    def test_provenance_attributes(self, tmp_path):
        settings = _settings(tmp_path)
        sim = Simulation(settings)
        with SimulationWriter(sim) as writer:
            writer.write()
        reader = BP5Reader(None, settings.output)
        attrs = reader.attributes
        for key in ("Du", "Dv", "F", "k", "noise", "dt", "L", "seed", "backend"):
            assert key in attrs, key
        assert attrs["visualization_schemas"].value == ["FIDES", "VTX"]
        assert "vtk.xml" in attrs
        assert attrs["Du"].value == settings.Du

    def test_block_minmax_recorded(self, tmp_path):
        settings = _settings(tmp_path)
        sim = Simulation(settings)
        with SimulationWriter(sim) as writer:
            writer.write()
        reader = BP5Reader(None, settings.output)
        assert reader.minmax("U") == (0.25, 1.0)


class TestParallelWriter:
    def test_blocks_reassemble(self, tmp_path):
        settings = _settings(tmp_path, steps=3)
        serial = Simulation(settings)
        serial.run(3)
        expected = gather_global(serial, "v")

        def worker(comm):
            sim = Simulation(settings, comm)
            sim.run(3)
            writer = SimulationWriter(sim)
            writer.write()
            writer.close()
            return True

        run_spmd(worker, 8, timeout=120)
        reader = BP5Reader(None, settings.output)
        got = reader.read("V", step=0)
        assert np.array_equal(got, expected)
        # 8 blocks, one per rank
        assert len(reader.blocks("V", 0)) == 8
