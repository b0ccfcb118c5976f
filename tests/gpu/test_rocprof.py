import random

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import Device
from repro.gpu.rocprof import (
    KernelStats,
    device_events,
    kernel_stats,
    timeline_rows,
    to_csv,
)
from repro.observe import trace as observe
from repro.observe.export import ascii_timeline


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


def _traced(steps):
    """(device, kernel, spans) of ``steps`` launches under a tracer."""
    with observe.session() as tracer:
        device = Device(name="gcd0", backend="julia")
        kernel = _launch_steps(device, steps=steps)
    return device, kernel, tracer.spans


class TestDeviceEvents:
    def test_event_kinds_recorded(self):
        _, _, spans = _traced(2)
        kinds = [kind for kind, _ in device_events(spans)]
        assert kinds.count("compile") == 1  # JIT once
        assert kinds.count("kernel") == 2

    def test_non_device_spans_ignored(self):
        with observe.session() as tracer:
            _launch_steps(Device(name="gcd0", backend="julia"), steps=1)
            tracer.add_span("step.compute", cat="core", clock=observe.WALL,
                            process="rank0", thread="main", start=0.0, seconds=1.0)
            tracer.add_span("lustre.write", cat="gpu", clock=observe.SIM,
                            process="gcd0", thread="io", start=0.0, seconds=1.0)
        assert [kind for kind, _ in device_events(tracer.spans)] == [
            "compile", "kernel"
        ]

    def test_events_are_ordered_in_time(self):
        device, _, spans = _traced(3)
        events = [span for _, span in device_events(spans)]
        starts = [span.start for span in events]
        assert starts == sorted(starts)
        assert events[-1].end == pytest.approx(device.clock.now)


class TestKernelStats:
    def test_stats_aggregation(self):
        _, kernel, spans = _traced(4)
        stats = kernel_stats(spans)[kernel.name]
        assert stats.calls == 4
        assert stats.total_seconds > 0
        assert stats.avg_fetch_bytes > 0
        assert stats.tcc_misses > 0

    def test_stats_sum_over_devices(self):
        with observe.session() as tracer:
            for name in ("gcd0", "gcd1"):
                kernel = _launch_steps(Device(name=name, backend="julia"), steps=3)
        per_device = kernel_stats(
            [s for s in tracer.spans if s.process == "gcd0"]
        )[kernel.name]
        both = kernel_stats(tracer.spans)[kernel.name]
        assert both.calls == 2 * per_device.calls == 6
        assert both.fetch_bytes == pytest.approx(2 * per_device.fetch_bytes)
        assert both.avg_fetch_bytes == pytest.approx(per_device.avg_fetch_bytes)

    def test_avg_fetch_of_no_calls(self):
        assert KernelStats("k").avg_fetch_bytes == 0.0

    def test_timeline_rows_one_interval_per_event(self):
        _, _, spans = _traced(3)
        rows = {label: intervals for label, _, intervals in timeline_rows(spans)}
        assert len(rows["JIT"]) == 1
        assert len(rows["GPU kernels"]) == 3
        assert all(end > start for start, end in rows["GPU kernels"])

    def test_render_timeline(self):
        _, _, spans = _traced(3)
        text = ascii_timeline(timeline_rows(spans))
        assert "GPU kernels" in text
        assert "JIT" in text

    def test_empty_timeline(self):
        assert "(empty trace)" in ascii_timeline(timeline_rows([]))


class TestCsvExport:
    def test_csv_shape(self):
        _, _, spans = _traced(2)
        lines = to_csv(spans).splitlines()
        assert lines[0].startswith('"Index","KernelName"')
        # 1 compile + 2 kernels
        assert len(lines) == 1 + 3
        assert any("<jit:" in line for line in lines)
        assert all(len(line.split(",")) == 11 for line in lines[1:])

    def test_csv_durations_consistent(self):
        _, _, spans = _traced(1)
        cells = to_csv(spans).splitlines()[-1].split(",")
        begin, end, duration = int(cells[3]), int(cells[4]), int(cells[5])
        assert end - begin == pytest.approx(duration, abs=2)

    def test_kernel_row_counters_from_span(self):
        _, kernel, spans = _traced(1)
        (span,) = [s for k, s in device_events(spans) if k == "kernel"]
        row = [line for line in to_csv(spans).splitlines()
               if f'"{kernel.name}"' in line]
        cells = row[0].split(",")
        assert [int(c) for c in cells[6:]] == [
            int(span.arg("fetch_bytes")), int(span.arg("write_bytes")),
            int(span.arg("tcc_hit")), int(span.arg("tcc_miss")), 64,
        ]

    def test_copy_rows_carry_their_bytes(self):
        with observe.session() as tracer:
            device = Device(name="g", backend="julia")
            arr = device.to_device(np.zeros((8, 8)))
            device.to_host(arr)
        rows = [line.split(",") for line in to_csv(tracer.spans).splitlines()[1:]]
        sizes = {row[1]: (int(row[6]), int(row[7])) for row in rows}
        assert sizes == {'"<memcpy:H2D>"': (0, 512), '"<memcpy:D2H>"': (512, 0)}

    def test_copies_in_csv(self):
        with observe.session() as tracer:
            device = Device(name="g", backend="julia")
            arr = device.to_device(np.zeros((8, 8)))
            device.to_host(arr)
        csv_text = to_csv(tracer.spans)
        assert "<memcpy:H2D>" in csv_text
        assert "<memcpy:D2H>" in csv_text

    def test_rows_independent_of_recording_order(self):
        """Rank threads interleave their devices' spans arbitrarily."""
        with observe.session() as tracer:
            for name in ("gcd1", "gcd0"):
                _launch_steps(Device(name=name, backend="julia"), steps=2)
        spans = list(tracer.spans)
        expected = to_csv(spans)
        for seed in range(3):
            random.Random(seed).shuffle(spans)
            assert to_csv(spans) == expected
        devices = [line.split(",")[2] for line in expected.splitlines()[1:]]
        assert devices[:2] == ['"gcd0"', '"gcd1"']  # equal starts: by device
