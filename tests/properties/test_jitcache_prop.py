"""Property-based tests of the JIT disk cache of compiled kernels.

The invariants a warm start rests on:

- an object that round-trips through the cache directory is byte for
  byte the object the compiler wrote, and loads to the same function;
- a launch answered by an object from the directory, with no compiler
  on PATH, stores byte for byte what the compiling launch stored, over
  arbitrary shapes and Gray-Scott parameters;
- the memo key depends on array shapes, not values.
"""

import ctypes
import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu import jitcache
from repro.gpu.jit import TraceMemo, trace_memo
from repro.gpu.kernel import LaunchConfig
from repro.ir import lower

edges = st.integers(6, 14)
params = st.builds(
    GrayScottParams,
    Du=st.floats(0.05, 0.5, allow_nan=False),
    Dv=st.floats(0.02, 0.3, allow_nan=False),
    F=st.floats(0.005, 0.08, allow_nan=False),
    k=st.floats(0.03, 0.07, allow_nan=False),
)


def _launch(edge, p, seed):
    shape = (edge, edge, edge)
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random(shape))
    v = np.asfortranarray(rng.random(shape))
    un = np.zeros(shape, order="F")
    vn = np.zeros(shape, order="F")
    kernel = make_gray_scott_kernel()
    return kernel, kernel_args(u, v, un, vn, p, seed=seed, step=0)


def _launch_bytes(kernel, args) -> bytes:
    shape = args[0].shape
    kernel.execute(LaunchConfig.for_domain(tuple(reversed(shape)), (4, 4, 4)), args)
    return args[2].tobytes() + args[3].tobytes()


class TestPersistedPlanProperties:
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_disk_round_trip_is_bit_identical(self, tmp_path, monkeypatch, scale):
        """Compile into the directory, reload in an empty table: same
        bytes, same function."""
        source = f"double scaled(double x) {{ return x * {scale.hex()}; }}\n"
        monkeypatch.setattr(jitcache, "_NATIVE", {})
        jitcache.configure(tmp_path / "cache")
        try:
            jitcache.load(source, lambda tmp: lower._compile(source, tmp, "scaled"))
            ((digest, (_, compiled)),) = jitcache._NATIVE.items()
            assert jitcache.JitDiskCache(tmp_path / "cache").read(digest) == compiled
            jitcache._NATIVE.clear()
            fn = jitcache.load(source, None)["scaled"]
        finally:
            jitcache.deconfigure()
        fn.argtypes, fn.restype = [ctypes.c_double], ctypes.c_double
        assert fn(3.0) == 3.0 * scale

    @given(edges, params, st.integers(0, 2**31 - 1))
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_warm_start_first_launch_matches_cold(self, tmp_path, monkeypatch, edge, p,
                                                  seed):
        """A launch through a loaded object stores the cold launch's bytes."""
        monkeypatch.setattr(jitcache, "_NATIVE", {})
        trace_memo().clear()
        jitcache.configure(tmp_path / "cache")
        path = os.environ["PATH"]
        try:
            cold = _launch_bytes(*_launch(edge, p, seed))
            jitcache._NATIVE.clear()
            trace_memo().clear()
            os.environ["PATH"] = str(tmp_path / "no-bin")
            assert _launch_bytes(*_launch(edge, p, seed)) == cold
        finally:
            os.environ["PATH"] = path
            jitcache.deconfigure()
            trace_memo().clear()


class TestKeyCanonicalizationProperties:
    @given(edges, params)
    @settings(max_examples=25, deadline=None)
    def test_key_depends_on_shape_not_values(self, edge, p):
        """Two launches differing only in array *values* share a key."""
        kernel_a, args_a = _launch(edge, p, seed=1)
        kernel_b, args_b = _launch(edge, p, seed=2)
        key_a = TraceMemo.signature(kernel_a, args_a)
        key_b = TraceMemo.signature(kernel_b, args_b)
        # arrays key on (dtype, shape); scalars key on their value, and
        # the rng seed is a scalar arg — mask it by comparing array parts
        array_parts_a = [part for part in key_a if part[0] == "array"]
        array_parts_b = [part for part in key_b if part[0] == "array"]
        assert array_parts_a == array_parts_b
        assert key_a[0] == key_b[0]
