import numpy as np
import pytest

from repro.cluster.frontier import GcdSpec
from repro.gpu.memory import Device, DeviceArray
from repro.gpu.rocprof import Profiler
from repro.util.errors import DeviceMemoryError, GpuError


@pytest.fixture
def device():
    return Device(name="test-gcd", backend="julia")


class TestDeviceArray:
    def test_zeros_is_fortran(self, device):
        arr = device.zeros((4, 5, 6))
        assert arr.data.flags.f_contiguous
        assert arr.shape == (4, 5, 6)
        assert arr.nbytes == 4 * 5 * 6 * 8

    def test_requires_fortran_backing(self, device):
        c_order = np.zeros((3, 3), order="C")
        # 2D C-order non-trivial arrays are not F-contiguous
        c_order = np.zeros((3, 4), order="C")
        with pytest.raises(GpuError):
            DeviceArray(device, c_order)

    def test_fill(self, device):
        arr = device.zeros((2, 2, 2))
        arr.fill(3.0)
        assert (arr.data == 3.0).all()

    def test_named(self, device):
        arr = device.zeros((2, 2, 2), name="u")
        assert arr.name == "u"


class TestDeviceMemoryAccounting:
    def test_allocation_tracked(self, device):
        before = device.allocated_bytes
        arr = device.zeros((10, 10, 10))
        assert device.allocated_bytes == before + arr.nbytes

    def test_oom(self):
        small = GcdSpec(hbm_bytes=1024)
        device = Device(small, backend="julia")
        with pytest.raises(DeviceMemoryError):
            device.zeros((64, 64, 64))

    def test_free_returns_capacity(self, device):
        arr = device.zeros((10, 10, 10))
        used = device.allocated_bytes
        device.free(arr)
        assert device.allocated_bytes == used - 10 * 10 * 10 * 8

    def test_free_foreign_array_rejected(self, device):
        other = Device(name="other", backend="julia")
        arr = other.zeros((2, 2, 2))
        with pytest.raises(GpuError):
            device.free(arr)


class TestTransfers:
    def test_h2d_roundtrip(self, device):
        host = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        darr = device.to_device(host, "x")
        back = device.to_host(darr)
        assert np.array_equal(back, host)

    def test_transfer_advances_clock(self, device):
        host = np.zeros((100, 100))
        t0 = device.clock.now
        device.to_device(host)
        # 80 KB over 36 GB/s
        assert device.clock.now - t0 == pytest.approx(host.nbytes / 36e9)

    def test_transfers_profiled(self):
        profiler = Profiler()
        device = Device(name="p", backend="julia", profiler=profiler)
        darr = device.to_device(np.zeros((10, 10)))
        device.to_host(darr)
        kinds = [(e.kind, e.name) for e in profiler.events]
        assert ("copy", "H2D") in kinds
        assert ("copy", "D2H") in kinds

    def test_to_host_foreign_rejected(self, device):
        other = Device(name="other", backend="julia")
        arr = other.zeros((2, 2, 2))
        with pytest.raises(GpuError):
            device.to_host(arr)


class TestPerformanceOnlyMode:
    def test_exact_execution_off_skips_compute(self):
        """Frontier-scale mode: the perf model runs, the data does not."""
        from repro.core.params import GrayScottParams
        from repro.core.stencil import kernel_args, make_gray_scott_kernel
        from repro.gpu.kernel import LaunchConfig

        device = Device(backend="julia", exact_execution=False)
        n = 12
        u = device.zeros((n, n, n), name="u")
        v = device.zeros((n, n, n), name="v")
        un = device.zeros((n, n, n), name="u_temp")
        vn = device.zeros((n, n, n), name="v_temp")
        u.fill(1.0)
        kernel = make_gray_scott_kernel()
        cfg = LaunchConfig.for_domain((n, n, n), (4, 4, 4))
        cost = device.launch(
            kernel, cfg.grid, cfg.workgroup,
            kernel_args(u, v, un, vn, GrayScottParams(), seed=0, step=0),
        )
        assert cost.seconds > 0
        assert cost.fetch_bytes > 0
        assert (un.data == 0).all()  # outputs untouched
        # but the JIT still traced and compiled the kernel
        assert device.clock.now > cost.seconds
