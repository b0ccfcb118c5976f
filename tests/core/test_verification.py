"""Verify the solver against the exact discrete diffusion solution."""

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.domain import LocalDomain
from repro.core.exchange import exchange_ghosts, exchange_plan
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.kernel import LaunchConfig
from repro.util.errors import ConfigError
from tests.oracles.diffusion import (
    diffusion_error,
    exact_diffusion_evolution,
    laplacian_eigenvalues,
)


class TestEigenvalues:
    def test_dc_mode_is_zero(self):
        lam = laplacian_eigenvalues((8, 8, 8))
        assert lam[0, 0, 0] == pytest.approx(0.0)

    def test_range(self):
        lam = laplacian_eigenvalues((8, 8, 8))
        assert lam.min() >= -2.0 - 1e-12
        assert lam.max() <= 0.0 + 1e-12

    def test_checkerboard_is_most_negative(self):
        lam = laplacian_eigenvalues((8, 8, 8))
        assert lam[4, 4, 4] == pytest.approx(-2.0)

    def test_bad_shape(self):
        with pytest.raises(ConfigError):
            laplacian_eigenvalues((8, 8))


class TestExactEvolution:
    def test_zero_steps_identity(self):
        rng = np.random.default_rng(0)
        field = rng.random((6, 6, 6))
        assert np.allclose(exact_diffusion_evolution(field, 0.2, 1.0, 0), field)

    def test_constant_field_invariant(self):
        field = np.full((6, 6, 6), 3.5)
        out = exact_diffusion_evolution(field, 0.2, 1.0, 50)
        assert np.allclose(out, 3.5)

    def test_mass_conserved(self):
        rng = np.random.default_rng(1)
        field = rng.random((8, 8, 8))
        out = exact_diffusion_evolution(field, 0.2, 1.0, 100)
        assert out.sum() == pytest.approx(field.sum(), rel=1e-12)

    def test_decays_to_mean(self):
        rng = np.random.default_rng(2)
        field = rng.random((8, 8, 8))
        out = exact_diffusion_evolution(field, 0.3, 1.0, 5000)
        assert np.allclose(out, field.mean(), atol=1e-8)


class TestSolverMatchesExactSolution:
    """The time-stepping solver vs. the Fourier oracle."""

    def _run_solver(self, field0, D, dt, steps):
        """Drive the lowered kernel in pure-diffusion mode (U channel)."""
        n = field0.shape[0]
        shape = tuple(s + 2 for s in field0.shape)
        u = np.zeros(shape, order="F")
        v = np.zeros(shape, order="F")
        u[1:-1, 1:-1, 1:-1] = field0
        u_new = np.zeros_like(u)
        v_new = np.zeros_like(v)
        params = GrayScottParams(Du=D, Dv=0.0, F=0.0, k=0.0, noise=0.0, dt=dt)
        kernel = make_gray_scott_kernel()
        config = LaunchConfig.for_domain(shape[::-1], (shape[2], 1, 1))
        domain = LocalDomain.for_coords(field0.shape, (1, 1, 1), (0, 0, 0))
        plan = exchange_plan(domain, (True,) * 3)
        for step in range(steps):
            exchange_ghosts(None, u, plan)
            exchange_ghosts(None, v, plan)
            kernel.execute(
                config, kernel_args(u, v, u_new, v_new, params, seed=0, step=step)
            )
            u, u_new = u_new, u
            v, v_new = v_new, v
        return u[1:-1, 1:-1, 1:-1]

    @pytest.mark.parametrize("steps", [1, 10, 100])
    def test_machine_precision_agreement(self, steps):
        rng = np.random.default_rng(3)
        field0 = np.asfortranarray(rng.random((10, 10, 10)))
        D, dt = 0.2, 1.0
        solved = self._run_solver(field0, D, dt, steps)
        error = diffusion_error(solved, field0, D, dt, steps)
        assert error < 1e-11 * steps + 1e-13

    def test_non_cubic_domain(self):
        rng = np.random.default_rng(4)
        field0 = np.asfortranarray(rng.random((6, 10, 14)))
        solved = self._run_solver(field0, 0.25, 0.5, 20)
        assert diffusion_error(solved, field0, 0.25, 0.5, 20) < 1e-11

    def test_full_simulation_object_in_diffusion_mode(self):
        """End-to-end: the Simulation class itself against the oracle.

        The initial condition is the seed box; with F=k=noise=0 the U
        field diffuses exactly.
        """
        from repro.core.settings import GrayScottSettings
        from repro.core.simulation import Simulation

        settings = GrayScottSettings(
            L=12, steps=0, F=0.0, k=0.0, noise=0.0, Du=0.2, Dv=0.1
        )
        sim = Simulation(settings)
        sim.v[...] = 0.0  # kill the U*V^2 reaction: pure diffusion of U
        sim.exchange()
        field0 = sim.interior("u").copy(order="F")
        sim.run(25)
        error = diffusion_error(sim.interior("u"), field0, 0.2, 1.0, 25)
        assert error < 1e-11


class TestTemporalConvergenceOrder:
    """Forward Euler converges at O(dt) to the continuous solution.

    The discrete evolution (1 + dt*D*lam)^(T/dt) approaches
    exp(D*lam*T) as dt -> 0; halving dt must roughly halve the error —
    the classic order-verification study, run against a single Fourier
    mode where the continuous answer is known in closed form.
    """

    def _mode_error(self, dt, *, D=0.2, T=8.0, n=16):
        x = np.arange(n)
        mode = np.cos(2 * np.pi * x / n)
        field0 = np.asfortranarray(
            mode[:, None, None] * np.ones((n, n, n))
        )
        steps = int(round(T / dt))
        discrete = exact_diffusion_evolution(field0, D, dt, steps)
        lam = laplacian_eigenvalues((n, n, n))[1, 0, 0]
        continuous = field0 * np.exp(D * lam * T)
        return float(np.abs(discrete - continuous).max())

    def test_first_order_in_dt(self):
        e1 = self._mode_error(0.5)
        e2 = self._mode_error(0.25)
        e3 = self._mode_error(0.125)
        assert e1 / e2 == pytest.approx(2.0, rel=0.2)
        assert e2 / e3 == pytest.approx(2.0, rel=0.2)

    def test_error_vanishes_with_dt(self):
        assert self._mode_error(0.01) < self._mode_error(0.5) / 10
