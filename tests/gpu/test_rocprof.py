import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import Device
from repro.gpu.rocprof import Profiler


@pytest.fixture
def profiled_device():
    profiler = Profiler()
    device = Device(name="gcd0", backend="julia", profiler=profiler)
    return device, profiler


def _launch_steps(device, steps=3, n=12):
    shape = (n, n, n)
    u = device.zeros(shape, name="u")
    v = device.zeros(shape, name="v")
    un = device.zeros(shape, name="u_temp")
    vn = device.zeros(shape, name="v_temp")
    u.fill(1.0)
    kernel = make_gray_scott_kernel()
    cfg = LaunchConfig.for_domain((n, n, n), (4, 4, 4))
    for step in range(steps):
        args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=step)
        device.launch(kernel, cfg.grid, cfg.workgroup, args)
    return kernel


class TestProfiler:
    def test_event_kinds_recorded(self, profiled_device):
        device, profiler = profiled_device
        _launch_steps(device, steps=2)
        kinds = [e.kind for e in profiler.events]
        assert kinds.count("compile") == 1  # JIT once
        assert kinds.count("kernel") == 2

    def test_events_are_ordered_in_time(self, profiled_device):
        device, profiler = profiled_device
        _launch_steps(device, steps=3)
        starts = [e.start for e in profiler.events]
        assert starts == sorted(starts)
        assert profiler.events[-1].end == pytest.approx(device.clock.now)


class TestRocprofReport:
    def test_stats_aggregation(self, profiled_device):
        device, profiler = profiled_device
        kernel = _launch_steps(device, steps=4)
        report = profiler.report()
        stats = report.stats[kernel.name]
        assert stats.calls == 4
        assert stats.total_seconds > 0
        assert stats.avg_fetch_bytes > 0
        assert stats.tcc_misses > 0

    def test_render_trace(self, profiled_device):
        device, profiler = profiled_device
        _launch_steps(device)
        trace = profiler.report().render_trace()
        assert "GPU kernels" in trace
        assert "JIT" in trace

    def test_empty_trace(self):
        assert "(empty trace)" in Profiler().report().render_trace()

    def test_device_filter(self, profiled_device):
        device, profiler = profiled_device
        _launch_steps(device)
        other = profiler.report(device="nonexistent")
        assert not other.stats


class TestCsvExport:
    def test_csv_shape(self, profiled_device, tmp_path):
        device, profiler = profiled_device
        _launch_steps(device, steps=2)
        report = profiler.report()
        csv_text = report.to_csv()
        lines = csv_text.splitlines()
        assert lines[0].startswith('"Index","KernelName"')
        # 1 compile + 2 kernels
        assert len(lines) == 1 + 3
        assert any("<jit:" in line for line in lines)
        assert all(len(line.split(",")) == 11 for line in lines[1:])

    def test_csv_durations_consistent(self, profiled_device):
        device, profiler = profiled_device
        _launch_steps(device, steps=1)
        report = profiler.report()
        line = report.to_csv().splitlines()[-1]
        cells = line.split(",")
        begin, end, duration = int(cells[3]), int(cells[4]), int(cells[5])
        assert end - begin == pytest.approx(duration, abs=2)

    def test_write_csv(self, profiled_device, tmp_path):
        device, profiler = profiled_device
        _launch_steps(device, steps=1)
        target = tmp_path / "results.csv"
        profiler.report().write_csv(target)
        assert target.read_text().startswith('"Index"')

    def test_copies_in_csv(self):
        import numpy as np

        profiler = Profiler()
        device = Device(name="g", backend="julia", profiler=profiler)
        arr = device.to_device(np.zeros((8, 8)))
        device.to_host(arr)
        csv_text = profiler.report().to_csv()
        assert "<memcpy:H2D>" in csv_text
        assert "<memcpy:D2H>" in csv_text
