"""Neumann (zero-flux) boundary conditions — an extension beyond the
paper's periodic-only GrayScott.jl."""

import numpy as np
import pytest

from repro.core.domain import LocalDomain
from repro.core.exchange import exchange_ghosts, exchange_plan
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.mpi.executor import run_spmd
from repro.util.errors import ConfigError
from tests.oracles.gather import gather_global


def _wall_plan(dims, coords, shape=(3, 3, 3)):
    domain = LocalDomain.for_coords(shape, dims, coords)
    return exchange_plan(domain, (False,) * 3)


class TestMirrorGhosts:
    def test_all_faces(self):
        field = np.asfortranarray(np.random.default_rng(0).random((5, 5, 5)))
        exchange_ghosts(None, field, _wall_plan((1, 1, 1), (0, 0, 0)))
        assert np.array_equal(field[0], field[1])
        assert np.array_equal(field[-1], field[-2])
        assert np.array_equal(field[:, 0, :], field[:, 1, :])
        assert np.array_equal(field[:, :, -1], field[:, :, -2])

    def test_restricted_sides(self):
        """A block mirrors only its faces on the global boundary."""
        plan = _wall_plan((2, 1, 1), (0, 0, 0), shape=(4, 2, 2))
        mirrors = tuple(op for op in plan if op.kind == "mirror")
        assert {(op.axis, op.side) for op in mirrors} == {
            (0, -1), (1, -1), (1, +1), (2, -1), (2, +1)
        }
        field = np.zeros((4, 4, 4), order="F")
        field[1, :, :] = 7.0
        field[-2, :, :] = 9.0
        exchange_ghosts(None, field, mirrors)
        assert (field[0] == 7.0).all()
        assert (field[-1] == 0.0).all()  # untouched: a neighbour fills it


class TestNeumannSimulation:
    def _settings(self, **kwargs):
        defaults = dict(L=12, steps=0, noise=0.0, boundary="neumann")
        defaults.update(kwargs)
        return GrayScottSettings(**defaults)

    def test_invalid_boundary_rejected(self):
        with pytest.raises(ConfigError):
            GrayScottSettings(boundary="dirichlet")

    def test_pure_diffusion_conserves_mass(self):
        """Zero-flux walls: nothing leaves the box."""
        settings = self._settings(F=0.0, k=0.0, Du=0.2, Dv=0.1)
        sim = Simulation(settings)
        sim.v[...] = 0.0
        sim.exchange()
        mass0 = sim.interior("u").sum()
        sim.run(30)
        assert sim.interior("u").sum() == pytest.approx(mass0, rel=1e-12)

    def test_differs_from_periodic(self):
        neumann = Simulation(self._settings(noise=0.0))
        periodic = Simulation(self._settings(noise=0.0, boundary="periodic"))
        neumann.run(10)
        periodic.run(10)
        # the seed box is centred, but diffusion reaches the walls
        # eventually; run enough steps that the BC matters
        neumann.run(40)
        periodic.run(40)
        assert not np.array_equal(neumann.interior("u"), periodic.interior("u"))

    @pytest.mark.parametrize("nranks", [2, 8])
    def test_parallel_matches_serial_bitwise(self, nranks):
        settings = self._settings(noise=0.05, steps=0)
        serial = Simulation(settings)
        serial.run(8)
        expected_u = gather_global(serial, "u")
        expected_v = gather_global(serial, "v")

        def worker(comm):
            sim = Simulation(settings, comm)
            sim.run(8)
            return gather_global(sim, "u"), gather_global(sim, "v")

        got_u, got_v = run_spmd(worker, nranks, timeout=120)[0]
        assert np.array_equal(expected_u, got_u)
        assert np.array_equal(expected_v, got_v)

    def test_restart_roundtrip_neumann(self, tmp_path):
        from repro.core.restart import restore_checkpoint, write_checkpoint

        settings = self._settings(
            noise=0.02, checkpoint=str(tmp_path / "nck.bp")
        )
        full = Simulation(settings)
        full.run(10)

        first = Simulation(settings)
        first.run(5)
        write_checkpoint(first)
        resumed = Simulation(settings)
        restore_checkpoint(resumed)
        resumed.run(5)
        assert np.array_equal(full.u, resumed.u)
