import numpy as np
import pytest

from repro.cluster.frontier import GcdSpec
from repro.gpu.kernel import Kernel, KernelContext, LaunchConfig
from repro.util.errors import LaunchError


class TestLaunchConfig:
    def test_basic_properties(self):
        cfg = LaunchConfig(grid=(2, 3, 4), workgroup=(8, 4, 2))
        assert cfg.workgroup_size == 64
        assert cfg.total_workitems == 2 * 3 * 4 * 64
        assert cfg.global_extent == (16, 12, 8)

    def test_for_domain_ceil_division(self):
        cfg = LaunchConfig.for_domain((10, 10, 10), (4, 4, 4))
        assert cfg.grid == (3, 3, 3)
        assert all(e >= 10 for e in cfg.global_extent)

    def test_validate_workgroup_limit(self):
        cfg = LaunchConfig(grid=(1, 1, 1), workgroup=(32, 32, 2))
        with pytest.raises(LaunchError):
            cfg.validate(GcdSpec())

    def test_validate_ok_at_limit(self):
        LaunchConfig(grid=(1, 1, 1), workgroup=(1024, 1, 1)).validate(GcdSpec())

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1)])
    def test_invalid_shapes_rejected(self, bad):
        with pytest.raises(LaunchError):
            LaunchConfig(grid=bad, workgroup=(1, 1, 1))

    def test_non_3d_domain_rejected(self):
        with pytest.raises(LaunchError):
            LaunchConfig.for_domain((4, 4), (2, 2, 2))


class TestKernelContext:
    def test_global_idx(self):
        ctx = KernelContext(
            workgroup_idx=(1, 2, 0),
            workgroup_dim=(8, 4, 2),
            workitem_idx=(3, 1, 1),
        )
        assert ctx.global_idx() == (11, 9, 1)


def _fill_body(ctx, out, value):
    x, y, z = ctx.global_idx()
    n0, n1, n2 = out.shape
    if x >= n0 or y >= n1 or z >= n2:
        return
    out[x, y, z] = value + x + 10 * y + 100 * z


def _scale_body(ctx, src, out, value):
    x, y, z = ctx.global_idx()
    n0, n1, n2 = out.shape
    if x >= n0 or y >= n1 or z >= n2:
        return
    out[x, y, z] = value * src[x, y, z] + 1.0


class TestKernelExecution:
    def test_interpreter_covers_whole_domain(self):
        out = np.zeros((5, 5, 5), order="F")
        kernel = Kernel("fill", _fill_body)
        cfg = LaunchConfig.for_domain(out.shape, (2, 2, 2))
        kernel.execute(cfg, (out, 1.0))
        assert out[0, 0, 0] == 1.0
        assert out[4, 4, 4] == 1.0 + 4 + 40 + 400

    def test_vectorized_matches_interpreter(self):
        """The lowered, compiled path equals the per-workitem body."""
        from repro.ir.lower import lower

        src = np.asfortranarray(np.random.default_rng(1).random((6, 5, 4)))
        a = np.zeros((6, 5, 4), order="F")
        b = np.zeros((6, 5, 4), order="F")
        kernel = Kernel("scale", _scale_body)
        cfg = LaunchConfig.for_domain(a.shape, (4, 4, 4))
        assert lower(kernel, [src, b, 2.0], cfg).box == ((0, 6), (0, 5), (0, 4))
        kernel._interpret(cfg, (src, a, 2.0))
        kernel.execute(cfg, (src, b, 2.0))
        assert np.array_equal(a, b)

    def test_type_escape_runs_the_interpreter(self):
        """The fill body turns indices into floats, so it cannot lower."""
        from repro.ir.lower import lower
        from repro.util.errors import IrError

        out = np.zeros((6, 5, 4), order="F")
        cfg = LaunchConfig.for_domain(out.shape, (4, 4, 4))
        kernel = Kernel("fill", _fill_body)
        with pytest.raises(IrError, match="type escape"):
            lower(kernel, [out, 2.0], cfg)
        kernel.execute(cfg, (out, 2.0))
        assert out[5, 4, 3] == 2.0 + 5 + 40 + 300

    def test_guard_prevents_out_of_bounds(self):
        # grid overshoots the array; the guard must absorb it
        out = np.zeros((3, 3, 3), order="F")
        kernel = Kernel("fill", _fill_body)
        cfg = LaunchConfig.for_domain((4, 4, 4), (2, 2, 2))
        kernel.execute(cfg, (out, 0.0))  # must not raise

    def test_device_array_args_unwrapped(self):
        from repro.gpu.memory import Device

        device = Device(backend="hip")
        darr = device.zeros((4, 4, 4))
        kernel = Kernel("fill", _fill_body)
        cfg = LaunchConfig.for_domain((4, 4, 4), (2, 2, 2))
        kernel.execute(cfg, (darr, 5.0))
        assert darr.data[0, 0, 0] == 5.0
