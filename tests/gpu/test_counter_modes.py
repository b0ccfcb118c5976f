"""Trace-driven vs. analytic TCC counters."""

import numpy as np
import pytest

from repro.cluster.frontier import GcdSpec
from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.cache import StencilTrafficModel, TraceCacheSim, seven_point_offsets
from repro.gpu.jit import trace_kernel


class TestMultiSweep:
    def test_fetch_close_to_analytic_when_fits(self):
        shape = (16, 16, 16)
        loads = {"u": seven_point_offsets(), "v": seven_point_offsets()}
        stores = {"ut": {(0, 0, 0)}, "vt": {(0, 0, 0)}}
        trace = TraceCacheSim(1 << 20).multi_sweep(shape, 8, loads, stores)
        analytic = StencilTrafficModel(GcdSpec(tcc_bytes=1 << 20)).estimate(
            shape, 8, loads, stores
        )
        assert trace.fetch_bytes == pytest.approx(analytic.fetch_bytes, rel=0.1)

    def test_thrash_case_approaches_three_passes(self):
        shape = (64, 64, 20)
        loads = {"u": seven_point_offsets()}
        trace = TraceCacheSim(16 * 1024).multi_sweep(shape, 8, loads, {})
        array_bytes = 64 * 64 * 20 * 8
        assert 2.0 < trace.fetch_bytes / array_bytes <= 3.2

    def test_counters_consistent(self):
        trace = TraceCacheSim(1 << 20).multi_sweep(
            (12, 12, 12), 8, {"u": seven_point_offsets()}, {"ut": {(0, 0, 0)}}
        )
        assert trace.tcc_hits + trace.tcc_misses == trace.tcc_requests


class TestTracedKernelTraffic:
    """The analytic model against the exact LRU replay, both fed the
    access pattern the JIT traced from the Gray-Scott kernel itself."""

    @staticmethod
    def _pattern(n=14):
        shape = (n, n, n)
        arrays = [np.zeros(shape, order="F") for _ in range(4)]
        trace = trace_kernel(
            make_gray_scott_kernel(),
            kernel_args(*arrays, GrayScottParams(), seed=1, step=0),
        )
        return shape, trace.offsets_by_array(), trace.stores_by_array()

    def test_traced_pattern_is_the_stencil(self):
        _, loads, stores = self._pattern()
        assert list(loads.values()) == [seven_point_offsets()] * 2
        assert list(stores.values()) == [{(0, 0, 0)}] * 2

    def test_analytic_agrees_with_trace_at_mini_scale(self):
        shape, loads, stores = self._pattern()
        spec = GcdSpec()
        traced = TraceCacheSim(
            spec.tcc_bytes, line_bytes=spec.cache_line_bytes
        ).multi_sweep(shape, 8, loads, stores)
        analytic = StencilTrafficModel(spec).estimate(shape, 8, loads, stores)
        # small grid: everything fits, both see ~1 pass per array
        assert traced.fetch_bytes == pytest.approx(analytic.fetch_bytes, rel=0.15)
