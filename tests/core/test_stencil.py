import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import (
    kernel_args,
    laplacian_at,
    make_gray_scott_kernel,
    make_laplacian_kernel,
)
from repro.gpu.kernel import KernelContext, LaunchConfig
from repro.util.errors import ConfigError
from tests.oracles.kernel_interp import interpret
from tests.oracles.stencil import (
    check_ghosted,
    laplacian_field,
    step_reference,
    step_vectorized,
)


def _fields(n=8, seed=0):
    shape = (n + 2, n + 2, n + 2)
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random(shape))
    v = np.asfortranarray(rng.random(shape))
    return u, v, np.zeros(shape, order="F"), np.zeros(shape, order="F")


INTERIOR = (slice(1, -1),) * 3


class TestLaplacian:
    def test_constant_field_zero(self):
        field = np.full((5, 5, 5), 3.0, order="F")
        assert laplacian_at(field, 2, 2, 2) == 0.0
        assert np.allclose(laplacian_field(field), 0.0)

    def test_linear_field_zero(self):
        """The discrete Laplacian annihilates linear profiles."""
        x = np.arange(6)[:, None, None] * np.ones((6, 6, 6))
        field = np.asfortranarray(x)
        assert abs(laplacian_at(field, 2, 3, 3)) < 1e-14

    def test_point_source(self):
        field = np.zeros((5, 5, 5), order="F")
        field[2, 2, 2] = 6.0
        assert laplacian_at(field, 2, 2, 2) == -6.0
        assert laplacian_at(field, 1, 2, 2) == 1.0

    def test_field_matches_pointwise(self):
        rng = np.random.default_rng(3)
        field = np.asfortranarray(rng.random((6, 7, 8)))
        lap = laplacian_field(field)
        for i in range(1, 5):
            for j in range(1, 6):
                for k in range(1, 7):
                    assert lap[i - 1, j - 1, k - 1] == laplacian_at(field, i, j, k)


class TestCheckGhosted:
    def test_valid(self):
        check_ghosted(np.zeros((4, 4, 4), order="F"))

    def test_wrong_ndim(self):
        with pytest.raises(ConfigError):
            check_ghosted(np.zeros((4, 4), order="F"))

    def test_too_small(self):
        with pytest.raises(ConfigError):
            check_ghosted(np.zeros((2, 4, 4), order="F"))

    def test_c_order_rejected(self):
        with pytest.raises(ConfigError):
            check_ghosted(np.zeros((4, 4, 4), order="C"))


class TestStepImplementations:
    def test_reference_vs_vectorized_bitwise(self):
        u, v, u1, v1 = _fields()
        u2, v2 = np.zeros_like(u1), np.zeros_like(v1)
        p = GrayScottParams()
        step_reference(u, v, u1, v1, p, seed=7, step=3, global_start=(5, 6, 7))
        step_vectorized(u, v, u2, v2, p, seed=7, step=3, global_start=(5, 6, 7))
        assert np.array_equal(u1[INTERIOR], u2[INTERIOR])
        assert np.array_equal(v1[INTERIOR], v2[INTERIOR])

    def test_gpu_interpreter_matches_vectorized(self):
        u, v, u1, v1 = _fields(n=6)
        u2, v2 = np.zeros_like(u1), np.zeros_like(v1)
        p = GrayScottParams()
        kernel = make_gray_scott_kernel()
        cfg = LaunchConfig.for_domain(tuple(reversed(u.shape)), (4, 4, 4))
        interpret(kernel, cfg, kernel_args(u, v, u1, v1, p, seed=1, step=0))
        kernel.execute(cfg, kernel_args(u, v, u2, v2, p, seed=1, step=0))
        assert np.array_equal(u1[INTERIOR], u2[INTERIOR])
        assert np.array_equal(v1[INTERIOR], v2[INTERIOR])

    def test_float32_interpreter_computes_in_float64(self):
        """float32 fields: the interpreter, the lowered kernel and the
        loop oracle all compute in float64 and round once at the store
        (NumPy scalar promotion would otherwise keep float32 math)."""
        shape = (6, 7, 8)  # a 4x5x6 interior
        rng = np.random.default_rng(11)
        u = np.asfortranarray(rng.random(shape, dtype=np.float32))
        v = np.asfortranarray(rng.random(shape, dtype=np.float32))
        out = {
            name: (np.zeros(shape, np.float32, order="F"),
                   np.zeros(shape, np.float32, order="F"))
            for name in ("interp", "lowered", "oracle", "f32math")
        }
        p = GrayScottParams(noise=0.05)
        kernel = make_gray_scott_kernel()
        cfg = LaunchConfig.for_domain(tuple(reversed(shape)), (4, 4, 4))
        interpret(kernel, cfg, kernel_args(u, v, *out["interp"], p, seed=3, step=1))
        kernel.execute(cfg, kernel_args(u, v, *out["lowered"], p, seed=3, step=1))
        step_reference(u, v, *out["oracle"], p, seed=3, step=1)
        # the body called on raw float32 arrays computes in float32
        f32_args = kernel_args(u, v, *out["f32math"], p, seed=3, step=1)
        for k in range(1, shape[2] - 1):
            for j in range(1, shape[1] - 1):
                for i in range(1, shape[0] - 1):
                    ctx = KernelContext((0, 0, 0), (1, 1, 1), (k, j, i))
                    kernel.body(ctx, *f32_args)
        for name in ("interp", "lowered"):
            for got, want in zip(out[name], out["oracle"]):
                assert np.array_equal(got, want), name
        assert any(
            not np.array_equal(got, want)
            for got, want in zip(out["f32math"], out["oracle"])
        )

    def test_boundary_untouched(self):
        u, v, u1, v1 = _fields()
        step_vectorized(u, v, u1, v1, GrayScottParams(), seed=0, step=0)
        assert (u1[0] == 0).all() and (u1[-1] == 0).all()

    def test_noise_zero_is_deterministic_dynamics(self):
        u, v, u1, v1 = _fields()
        u2, v2 = np.zeros_like(u1), np.zeros_like(v1)
        p = GrayScottParams(noise=0.0)
        step_vectorized(u, v, u1, v1, p, seed=1, step=0)
        step_vectorized(u, v, u2, v2, p, seed=99, step=5)  # different keys
        assert np.array_equal(u1[INTERIOR], u2[INTERIOR])

    def test_noise_decomposition_invariance(self):
        """Split the domain in two: same noise as the full domain."""
        n = 8
        u, v, u_new, v_new = _fields(n)
        p = GrayScottParams()
        step_vectorized(u, v, u_new, v_new, p, seed=4, step=2, global_start=(0, 0, 0))

        # lower half as its own subdomain with ghosts from the full field
        half = n // 2
        sub_u = np.asfortranarray(u[:, :, : half + 2])
        sub_v = np.asfortranarray(v[:, :, : half + 2])
        sub_un = np.zeros_like(sub_u)
        sub_vn = np.zeros_like(sub_v)
        step_vectorized(sub_u, sub_v, sub_un, sub_vn, p, seed=4, step=2,
                        global_start=(0, 0, 0))
        assert np.array_equal(
            sub_un[1:-1, 1:-1, 1:-1], u_new[1:-1, 1:-1, 1: half + 1]
        )

    def test_shape_mismatch_rejected(self):
        u, v, u1, v1 = _fields()
        bad = np.zeros((4, 4, 4), order="F")
        with pytest.raises(ConfigError):
            step_reference(u, v, bad, v1, GrayScottParams(), seed=0, step=0)

    def test_pure_diffusion_decays_peak_and_conserves_mass(self):
        """Physics sanity: with U=0 and F=k=noise=0, V diffuses only —
        the spike decays and total V mass is conserved."""
        n = 10
        shape = (n + 2,) * 3
        u = np.zeros(shape, order="F")  # no reaction source
        v = np.zeros(shape, order="F")
        v[6, 6, 6] = 1.0
        p = GrayScottParams(F=0.0, k=0.0, noise=0.0, Du=0.0, Dv=0.3)
        v_prev_peak = 1.0
        mass0 = v[INTERIOR].sum()
        u_new, v_new = np.zeros_like(u), np.zeros_like(v)
        for step in range(3):  # front must not reach the ghost layer
            step_vectorized(u, v, u_new, v_new, p, seed=0, step=step)
            # copy interiors back (spike stays far from the boundary)
            u[INTERIOR], v[INTERIOR] = u_new[INTERIOR], v_new[INTERIOR]
            peak = v[INTERIOR].max()
            assert peak < v_prev_peak
            v_prev_peak = peak
        assert v[INTERIOR].sum() == pytest.approx(mass0, rel=1e-12)


class TestLaplacianKernel:
    def test_matches_explicit_diffusion(self):
        n = 6
        shape = (n + 2,) * 3
        rng = np.random.default_rng(1)
        var = np.asfortranarray(rng.random(shape))
        out1 = np.zeros(shape, order="F")
        out2 = np.zeros(shape, order="F")
        kernel = make_laplacian_kernel()
        cfg = LaunchConfig.for_domain(shape, (4, 4, 4))
        interpret(kernel, cfg, (var, out1, shape, 0.2, 1.0))
        kernel.execute(cfg, (var, out2, shape, 0.2, 1.0))
        assert np.array_equal(out1[INTERIOR], out2[INTERIOR])
        expected = var[INTERIOR] + 0.2 * laplacian_field(var) * 1.0
        assert np.array_equal(out2[INTERIOR], expected)
