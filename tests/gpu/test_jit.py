import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel, make_laplacian_kernel
from repro.gpu.backends import HIP_BACKEND, JULIA_BACKEND
from repro.gpu.jit import (
    Affine,
    JitCompiler,
    TraceError,
    TracedFloat,
    TracedInt,
    Tracer,
    trace_kernel,
)


def _gs_trace():
    shape = (12, 12, 12)
    u = np.ones(shape, order="F")
    v = np.ones(shape, order="F")
    un = np.zeros(shape, order="F")
    vn = np.zeros(shape, order="F")
    kernel = make_gray_scott_kernel()
    return trace_kernel(kernel, kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=0))


class TestAffine:
    def test_symbol_arithmetic(self):
        x = Affine.symbol("x")
        expr = (x + Affine.constant(3)) - Affine.constant(1)
        assert expr.const == 2
        assert expr.terms == (("x", 1),)

    def test_scaled(self):
        x = Affine.symbol("x")
        assert x.scaled(4).terms == (("x", 4),)
        assert x.scaled(0).terms == ()

    def test_cancellation(self):
        x = Affine.symbol("x")
        assert (x - x).terms == ()

    def test_str(self):
        assert str(Affine.symbol("x") + Affine.constant(-1)) == "x - 1"
        assert str(Affine.constant(0)) == "0"

    def test_duplicate_symbols_merge_canonically(self):
        x = Affine.symbol("x")
        expr = x + x + x
        assert expr.terms == (("x", 3),)
        # merging down to zero drops the term entirely
        assert (expr - x.scaled(3)).terms == ()

    def test_scaled_by_zero_is_constant_zero(self):
        x = Affine.symbol("x")
        expr = (x + Affine.constant(5)).scaled(0)
        assert expr.terms == ()
        assert expr.const == 0

    def test_scaled_negative_round_trips(self):
        x = Affine.symbol("x")
        expr = (x + Affine.constant(2)).scaled(-3)
        assert expr.terms == (("x", -3),)
        assert expr.const == -6
        assert expr.scaled(-1).terms == (("x", 3),)

    def test_nested_add_sub_round_trip(self):
        x, y = Affine.symbol("x"), Affine.symbol("y")
        expr = ((x + y) - (y - x)) + Affine.constant(4)
        assert expr.terms == (("x", 2),)
        assert expr.const == 4

    def test_terms_sorted_regardless_of_build_order(self):
        x, y = Affine.symbol("x"), Affine.symbol("y")
        assert (y + x).terms == (x + y).terms == (("x", 1), ("y", 1))

    def test_coefficient_lookup(self):
        x, y = Affine.symbol("x"), Affine.symbol("y")
        expr = x.scaled(2) + y
        assert expr.coefficient("x") == 2
        assert expr.coefficient("z") == 0

    def test_evaluate(self):
        x, y = Affine.symbol("x"), Affine.symbol("y")
        expr = x.scaled(2) - y + Affine.constant(1)
        assert expr.evaluate({"x": 3, "y": 4}) == 3


class TestTracedInt:
    def test_arithmetic_tracks_both(self):
        t = Tracer("t")
        i = TracedInt(t, 2, Affine.symbol("x"))
        j = (i + 1) * 3 - 2
        assert j.value == 7
        assert j.expr.terms == (("x", 3),)
        assert j.expr.const == 1

    def test_comparisons_use_concrete(self):
        t = Tracer("t")
        i = TracedInt(t, 2, Affine.symbol("x"))
        assert i == 2 and i < 3 and i >= 2 and i != 5

    def test_symbol_times_symbol_rejected(self):
        t = Tracer("t")
        i = TracedInt(t, 2, Affine.symbol("x"))
        j = TracedInt(t, 3, Affine.symbol("y"))
        with pytest.raises(TraceError):
            _ = i * j

    def test_float_multiplier_rejected(self):
        t = Tracer("t")
        i = TracedInt(t, 2, Affine.symbol("x"))
        with pytest.raises(TraceError):
            _ = i * 1.5

    def test_hash_consistent_with_eq(self):
        # hashable stand-ins must satisfy a == b => hash(a) == hash(b),
        # including against plain ints (dict keys mix both)
        t = Tracer("t")
        i = TracedInt(t, 2, Affine.symbol("x"))
        j = TracedInt(t, 2, Affine.symbol("y"))
        assert i == j == 2
        assert hash(i) == hash(j) == hash(2)
        assert len({i, j, 2}) == 1

    def test_usable_as_dict_key(self):
        t = Tracer("t")
        i = TracedInt(t, 3, Affine.symbol("x"))
        table = {i: "a"}
        assert table[3] == "a"

    def test_eq_against_foreign_type(self):
        t = Tracer("t")
        i = TracedInt(t, 2, Affine.symbol("x"))
        assert (i == "two") is False
        assert (i != "two") is True


class TestTracedFloat:
    def test_arithmetic_records_ops(self):
        t = Tracer("t")
        a = TracedFloat(t, 2.0)
        b = TracedFloat(t, 3.0)
        c = (a + b) * 2.0 - 1.0 / b
        assert c.value == pytest.approx(10.0 - 1.0 / 3.0)
        assert t.trace.arith_ops["fadd"] == 1
        assert t.trace.arith_ops["fmul"] == 1

    def test_pow_expands_to_multiplies(self):
        t = Tracer("t")
        a = TracedFloat(t, 3.0)
        assert (a ** 3).value == 27.0
        assert t.trace.arith_ops["fmul"] == 2

    def test_pow_bad_exponent(self):
        t = Tracer("t")
        with pytest.raises(TraceError):
            _ = TracedFloat(t, 3.0) ** 0.5

    def test_negation(self):
        t = Tracer("t")
        assert (-TracedFloat(t, 3.0)).value == -3.0


class TestGrayScottTrace:
    """The Listing 4 reproduction: the traced kernel's memory profile."""

    def test_fourteen_unique_loads(self):
        assert len(_gs_trace().unique_loads) == 14

    def test_two_stores(self):
        assert len(_gs_trace().unique_stores) == 2

    def test_repeated_loads_cse(self):
        trace = _gs_trace()
        # raw loads exceed unique ones: u[i,j,k]/v[i,j,k] appear twice
        assert len(trace.loads) > len(trace.unique_loads)

    def test_seven_point_offsets_recovered(self):
        offsets = _gs_trace().offsets_by_array()
        from repro.gpu.cache import seven_point_offsets

        u_offsets = offsets["arg0"]
        assert u_offsets == seven_point_offsets()

    def test_stores_at_center_only(self):
        stores = _gs_trace().stores_by_array()
        assert all(offs == {(0, 0, 0)} for offs in stores.values())

    def test_one_rand_call(self):
        assert _gs_trace().rand_calls == 1

    def test_ir_renders(self):
        ir = _gs_trace().render_ir()
        assert "14 unique loads, 2 stores" in ir
        assert "load double" in ir
        assert "store double" in ir
        assert "@device_uniform" in ir

    def test_laplacian_kernel_profile(self):
        shape = (10, 10, 10)
        var = np.ones(shape, order="F")
        out = np.zeros(shape, order="F")
        kernel = make_laplacian_kernel()
        trace = trace_kernel(kernel, (var, out, shape, 0.2, 1.0))
        assert len(trace.unique_loads) == 7
        assert len(trace.unique_stores) == 1
        assert trace.rand_calls == 0


class TestTraceKernelValidation:
    def test_small_array_rejected(self):
        kernel = make_laplacian_kernel()
        tiny = np.ones((3, 3, 3), order="F")
        out = np.zeros((3, 3, 3), order="F")
        with pytest.raises(TraceError):
            trace_kernel(kernel, (tiny, out, (3, 3, 3), 0.2, 1.0))

    def test_trace_does_not_mutate_args(self):
        shape = (8, 8, 8)
        var = np.ones(shape, order="F")
        out = np.zeros(shape, order="F")
        kernel = make_laplacian_kernel()
        before = var.copy()
        trace_kernel(kernel, (var, out, shape, 0.2, 1.0))
        assert (out == 0).all()  # stores stay in the tracer's overlay
        assert np.array_equal(var, before)

    def test_body_reads_its_own_store(self):
        from repro.gpu.kernel import Kernel

        seen = []

        def body(ctx, a):
            i, j, k = ctx.global_idx()
            a[i, j, k] = a[i, j, k] + 5.0
            seen.append(a[i, j, k].value)  # the stored cell, read back
            seen.append(a[i + 1, j, k].value)  # an unstored cell: the caller's

        a = np.full((6, 6, 6), 2.0, order="F")
        trace = trace_kernel(Kernel("store_then_load", body), (a,))
        assert seen == [7.0, 2.0]
        assert (a == 2.0).all()
        # the reload of the stored cell is a load of its own, not the first one
        assert [op[0] for op in trace.ops] == ["load", "arith", "store", "load", "load"]


class TestJitCompiler:
    def _args(self):
        shape = (8, 8, 8)
        return (
            np.ones(shape, order="F"),
            np.zeros(shape, order="F"),
            shape, 0.2, 1.0,
        )

    def test_first_compile_costs_time_julia(self):
        jit = JitCompiler(JULIA_BACKEND)
        _, seconds = jit.compile(make_laplacian_kernel(), self._args())
        assert seconds > 10.0  # the ~20s Julia JIT cost

    def test_cache_hit_is_free(self):
        jit = JitCompiler(JULIA_BACKEND)
        kernel = make_laplacian_kernel()
        jit.compile(kernel, self._args())
        _, seconds = jit.compile(kernel, self._args())
        assert seconds == 0.0

    def test_hip_is_aot(self):
        jit = JitCompiler(HIP_BACKEND)
        _, seconds = jit.compile(make_laplacian_kernel(), self._args())
        assert seconds == 0.0

    def test_codegen_metadata(self):
        jit = JitCompiler(JULIA_BACKEND)
        compiled, _ = jit.compile(make_laplacian_kernel(), self._args())
        assert len(compiled.trace.unique_loads) == 7
        assert len(compiled.trace.unique_stores) == 1


class TestTraceMemo:
    def _args(self, n=8, dtype=np.float64):
        shape = (n, n, n)
        return (
            np.ones(shape, dtype=dtype, order="F"),
            np.zeros(shape, dtype=dtype, order="F"),
            shape, 0.2, 1.0,
        )

    def test_repeat_launch_is_one_trace(self):
        from repro.gpu.jit import TraceMemo

        memo = TraceMemo()
        kernel = make_laplacian_kernel()
        args = self._args()
        first = memo.trace(kernel, args)
        for _ in range(19):
            assert memo.trace(kernel, args) is first
        assert memo.misses == 1 and memo.hits == 19

    def test_shape_class_changes_retrace(self):
        from repro.gpu.jit import TraceMemo

        memo = TraceMemo()
        kernel = make_laplacian_kernel()
        memo.trace(kernel, self._args(8))
        memo.trace(kernel, self._args(10))
        assert memo.misses == 2

    def test_dtype_changes_retrace(self):
        from repro.gpu.jit import TraceMemo

        memo = TraceMemo()
        kernel = make_laplacian_kernel()
        memo.trace(kernel, self._args(dtype=np.float64))
        memo.trace(kernel, self._args(dtype=np.float32))
        assert memo.misses == 2

    @pytest.mark.parametrize(
        "dtype", ["float16", "float32", "float64", "int32", ">f8"]
    )
    def test_signature_spells_the_dtype_name(self, dtype):
        from repro.gpu.jit import TraceMemo

        kernel = make_laplacian_kernel()
        name, shape = np.dtype(dtype).name, (8, 8, 8)
        expected = (
            (kernel.name, kernel.body, False, 10),
            ("array", 0, "arg0", name, shape),
            ("array", 1, "arg1", name, shape),
            ("tuple", 2, shape), ("float", 3), ("float", 4),
        )
        memo = TraceMemo()
        for _ in range(2):  # the second launch reads the cached name
            key = memo.signature(kernel, self._args(dtype=np.dtype(dtype)))
            assert key == expected
            memo.trace(kernel, self._args(dtype=np.dtype(dtype)), key=key)
        assert (memo.misses, memo.hits) == (1, 1)
        # byte order is not part of the name: >f8 keys as native float64
        native = self._args(dtype=np.dtype(dtype).newbyteorder("="))
        assert memo.signature(kernel, native) == expected

    def test_eviction_respects_maxsize(self):
        from repro.gpu.jit import TraceMemo

        memo = TraceMemo(maxsize=2)
        kernel = make_laplacian_kernel()
        memo.trace(kernel, self._args(6))
        memo.trace(kernel, self._args(7))
        memo.trace(kernel, self._args(8))  # evicts the n=6 entry
        memo.trace(kernel, self._args(6))
        assert memo.misses == 4

    def test_stats_shape(self):
        from repro.gpu.jit import TraceMemo

        memo = TraceMemo()
        stats = memo.stats
        assert set(stats) >= {"hits", "misses", "entries"}
