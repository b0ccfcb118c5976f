"""Property-based invariants of the Gray-Scott solver."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import GrayScottParams
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from tests.oracles.stencil import laplacian_field, step_vectorized


class TestLaplacianProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_laplacian_is_linear(self, seed):
        rng = np.random.default_rng(seed)
        a = np.asfortranarray(rng.random((6, 6, 6)))
        b = np.asfortranarray(rng.random((6, 6, 6)))
        lhs = laplacian_field(np.asfortranarray(a + 2.0 * b))
        rhs = laplacian_field(a) + 2.0 * laplacian_field(b)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @given(st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_laplacian_kills_constants(self, value):
        field = np.full((5, 5, 5), value, order="F")
        assert np.allclose(laplacian_field(field), 0.0, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_laplacian_mean_zero_on_periodic_field(self, seed):
        """sum(lap) over a periodic domain is zero (discrete divergence)."""
        rng = np.random.default_rng(seed)
        interior = rng.random((6, 6, 6))
        field = np.asfortranarray(np.pad(interior, 1, mode="wrap"))
        assert abs(laplacian_field(field).sum()) < 1e-10


class TestStepProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_reference_equals_vectorized_for_any_seed(self, seed, step):
        from tests.oracles.stencil import step_reference

        rng = np.random.default_rng(seed)
        shape = (6, 6, 6)
        u = np.asfortranarray(rng.random(shape))
        v = np.asfortranarray(rng.random(shape))
        u1, v1 = np.zeros_like(u), np.zeros_like(v)
        u2, v2 = np.zeros_like(u), np.zeros_like(v)
        p = GrayScottParams()
        step_reference(u, v, u1, v1, p, seed=seed, step=step)
        step_vectorized(u, v, u2, v2, p, seed=seed, step=step)
        core = (slice(1, -1),) * 3
        assert np.array_equal(u1[core], u2[core])
        assert np.array_equal(v1[core], v2[core])

    @given(st.sampled_from([0.0, 0.01, 0.1]), st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_fields_remain_finite(self, noise, seed):
        settings_ = GrayScottSettings(L=8, noise=noise, seed=seed, steps=0)
        sim = Simulation(settings_)
        sim.run(15)
        assert np.isfinite(sim.u).all()
        assert np.isfinite(sim.v).all()

    @given(st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_zero_noise_simulation_is_seed_independent(self, seed):
        a = Simulation(GrayScottSettings(L=8, noise=0.0, seed=seed, steps=0))
        b = Simulation(GrayScottSettings(L=8, noise=0.0, seed=seed + 1, steps=0))
        a.run(5)
        b.run(5)
        assert np.array_equal(a.u, b.u)
