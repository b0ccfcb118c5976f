import numpy as np
import pytest

from repro.cluster.frontier import GcdSpec
from repro.gpu.memory import Device, DeviceArray
from repro.gpu.rocprof import device_events
from repro.observe import trace as observe
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

    def test_transfers_traced(self):
        with observe.session() as tracer:
            device = Device(name="p", backend="julia")
            darr = device.to_device(np.zeros((10, 10)))
            device.to_host(darr)
        kinds = [(kind, s.arg("kind")) for kind, s in device_events(tracer.spans)]
        assert kinds == [("copy", "H2D"), ("copy", "D2H")]

    def test_to_host_foreign_rejected(self, device):
        other = Device(name="other", backend="julia")
        arr = other.zeros((2, 2, 2))
        with pytest.raises(GpuError):
            device.to_host(arr)


def _launch(device, n=8):
    from repro.core.params import GrayScottParams
    from repro.core.stencil import kernel_args, make_gray_scott_kernel
    from repro.gpu.kernel import LaunchConfig

    arrays = [device.zeros((n, n, n), name=f"a{i}") for i in range(4)]
    arrays[0].fill(1.0)
    cfg = LaunchConfig.for_domain((n, n, n), (4, 4, 4))
    return device.launch(
        make_gray_scott_kernel(), cfg.grid, cfg.workgroup,
        kernel_args(*arrays, GrayScottParams(), seed=0, step=0),
    )


class TestLaunchSpans:
    def test_kernel_span_carries_launch_counters(self):
        with observe.session() as tracer:
            device = Device(name="k", backend="julia")
            cost = _launch(device)
        (span,) = [s for kind, s in device_events(tracer.spans) if kind == "kernel"]
        assert span.seconds == cost.seconds
        assert span.arg("fetch_bytes") == cost.fetch_bytes
        assert span.arg("write_bytes") == cost.write_bytes
        assert span.arg("tcc_hit") == cost.tcc_hits
        assert span.arg("tcc_miss") == cost.tcc_misses
        assert span.arg("workgroup_size") == 64

    def test_aot_device_records_no_compile(self):
        with observe.session() as tracer:
            _launch(Device(name="jit", backend="julia"))
            _launch(Device(name="aot", backend="julia", aot=True))
        compiles = [s.process for kind, s in device_events(tracer.spans)
                    if kind == "compile"]
        assert compiles == ["jit"]

    def test_untraced_launch_prices_the_same(self):
        """Without a tracer the device records nothing, and charges the
        same modeled time to its clock."""
        assert observe.active() is None
        untraced = Device(name="u", backend="julia")
        cost = _launch(untraced)
        with observe.session():
            traced = Device(name="t", backend="julia")
            assert _launch(traced) == cost
        assert untraced.clock.now == traced.clock.now
