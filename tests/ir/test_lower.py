"""Lowering the stencil IR to C (repro.ir.lower)."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.ir.lower import lower
from repro.util.errors import IrError, LaunchError
from tests.oracles.kernel_interp import interpret
from tests.oracles.lower import lower_numpy
from tests.oracles.stencil import step_vectorized


def _fields(interior, seed=0, dtype=np.float64):
    shape = tuple(n + 2 for n in interior)
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random(shape)).astype(dtype, order="F")
    v = np.asfortranarray(rng.random(shape)).astype(dtype, order="F")
    return u, v, np.zeros_like(u), np.zeros_like(v)


def _config(shape):
    return LaunchConfig.for_domain(tuple(reversed(shape)), (4, 4, 4))


class TestGrayScott:
    def test_listing4_loads_are_the_loads_that_run(self):
        u, v, un, vn = _fields((6, 5, 4))
        args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=2)
        lowered = lower(make_gray_scott_kernel(), list(args), _config(u.shape))
        # 33 array ops plus the scalar F + K, which the cost trace folds
        assert lowered.func.op_counts() == {
            "load": 14, "arith": 34, "rand": 1, "store": 2,
        }
        loads = re.findall(r"= (a[01]\[c[^\]]*\]);", lowered.source)
        assert len(loads) == len(set(loads)) == 14
        assert len(re.findall(r"a[23]\[c\] = \(double\)", lowered.source)) == 2
        assert lowered.source.count("mix(") == 5 + 1  # five keys, one definition
        # (seed, step, i, j) are hashed once per column: each cell mixes in k
        assert lowered.source.rsplit("for (", 1)[1].count("mix(") == 1
        assert lowered.box == ((1, 7), (1, 6), (1, 5))  # per array axis
        assert "$Du" in lowered.func.params and "$seed" in lowered.func.params
        # parameter-only math runs once per call, before the box loop
        head, loop = lowered.source.split("for (", 1)
        assert "const double v45 = a7 + a8;" in head and "a7 + a8" not in loop
        # the NumPy oracle emitter sweeps the same plan in ufunc calls
        oracle = lower_numpy(make_gray_scott_kernel(), list(args), _config(u.shape))
        assert oracle.nbuf == 4
        assert oracle.size == 4 * 8 * 7  # one chunk: the 4 interior k-planes

    def test_matches_the_whole_array_oracle(self):
        u, v, un, vn = _fields((8, 6, 5), seed=3)
        ou, ov = np.zeros_like(un), np.zeros_like(vn)
        p = GrayScottParams(noise=0.05)
        kernel = make_gray_scott_kernel()
        kernel.execute(_config(u.shape), kernel_args(
            u, v, un, vn, p, seed=9, step=4, global_start=(3, 0, 7)))
        step_vectorized(u, v, ou, ov, p, seed=9, step=4, global_start=(3, 0, 7))
        assert np.array_equal(un, ou) and np.array_equal(vn, ov)

    def test_c_ordered_fields_are_refused(self):
        u, v, un, vn = (np.ascontiguousarray(a) for a in _fields((5, 6, 4), seed=4))
        p, kernel, cfg = GrayScottParams(), make_gray_scott_kernel(), _config(u.shape)
        with pytest.raises(IrError, match="Fortran-ordered"):
            kernel.execute(cfg, kernel_args(u, v, un, vn, p, seed=2, step=1))
        assert not un.any() and not vn.any()

    def test_a_new_layout_under_the_same_signature_is_refused(self):
        """The memo signature ignores strides; the lowered function checks
        them on every call and refuses a layout it was not built for."""
        kernel, p = make_gray_scott_kernel(), GrayScottParams()
        f_order = _fields((4, 5, 3), seed=6)
        cfg = _config(f_order[0].shape)
        args = kernel_args(*f_order, p, seed=1, step=0)
        lowered = lower(kernel, list(args), cfg)
        c_order = [np.ascontiguousarray(a) for a in _fields((4, 5, 3), seed=6)]
        c_args = kernel_args(*c_order, p, seed=1, step=0)
        with pytest.raises(LaunchError, match="array u is not a Fortran-ordered"):
            lowered(list(c_args))
        kernel.execute(cfg, args)
        with pytest.raises(LaunchError, match="Fortran-ordered"):
            kernel.execute(cfg, c_args)
        assert not c_order[2].any() and not c_order[3].any()
        interpret(kernel, cfg, c_args)
        assert np.array_equal(f_order[2], c_order[2])

    def test_aliased_output_is_refused(self):
        u, v, _, vn = _fields((4, 4, 4), seed=5)
        kernel = make_gray_scott_kernel()
        cfg = _config(u.shape)
        before_u, before_v = u.copy(order="F"), vn.copy(order="F")
        # u is both read and written: per-cell order would matter
        with pytest.raises(LaunchError, match="array u .*overlaps a stored array"):
            kernel.execute(cfg, kernel_args(u, v, u, vn, GrayScottParams(), seed=1, step=0))
        assert np.array_equal(u, before_u) and np.array_equal(vn, before_v)


def _box_body(ctx, src, out):
    x, y, z = ctx.global_idx()
    if x < 1 or x >= out.shape[0] - 1 or y >= out.shape[1] or z >= out.shape[2]:
        return
    out[x, y, z] = src[x - 1, y, z] * 0.5 + src[x + 1, y, z]


def _truthy_body(ctx, src, out):
    """``not x`` is the guard ``x != 0``."""
    x, y, z = ctx.global_idx()
    if not x or x >= out.shape[0] or y >= out.shape[1] or z >= out.shape[2]:
        return
    out[x, y, z] = src[x, y, z] * 2.0


def _hole_body(ctx, src, out):
    x, y, z = ctx.global_idx()
    if x == 3 or x >= out.shape[0] or y >= out.shape[1] or z >= out.shape[2]:
        return
    out[x, y, z] = src[x, y, z]


def _boundary_body(ctx, src, out):
    x, y, z = ctx.global_idx()
    if x >= out.shape[0] or y >= out.shape[1] or z >= out.shape[2]:
        return
    if x == 0:
        out[x, y, z] = 0.0
        return
    out[x, y, z] = src[x, y, z]


def _nested_body(ctx, src, out):
    """Writes the x = 0 plane from inside the branch the box excludes."""
    x, y, z = ctx.global_idx()
    if x >= out.shape[0] or y >= out.shape[1] or z >= out.shape[2]:
        return
    if x < 2:
        if x == 0:
            out[x, y, z] = 1.0
        return
    out[x, y, z] = src[x, y, z]


def _corner_body(ctx, src, out):
    """Writes only the (0, 0, z) edge beside the box."""
    x, y, z = ctx.global_idx()
    if x >= out.shape[0] or y >= out.shape[1] or z >= out.shape[2]:
        return
    if x == 0:
        if y == 0:
            out[x, y, z] = 1.0
        return
    out[x, y, z] = src[x, y, z]


def _workitem_body(ctx, src, out):
    """Skips the first workitem of every workgroup: all of them at (1, 1, 1)."""
    x, y, z = ctx.global_idx()
    if ctx.workitem_idx[0] == 0 or x >= out.shape[0] or y >= out.shape[1] or (
        z >= out.shape[2]
    ):
        return
    out[x, y, z] = src[x, y, z]


def _sqrt_body(ctx, src, out, D):
    x, y, z = ctx.global_idx()
    if x >= out.shape[0] or y >= out.shape[1] or z >= out.shape[2]:
        return
    out[x, y, z] = src[x, y, z] * math.sqrt(D)


def _unguarded_body(ctx, src, out):
    x, y, z = ctx.global_idx()
    out[x, y, z] = src[x - 1, y, z]


def _branchy_body(ctx, src, out, step):
    x, y, z = ctx.global_idx()
    if x >= out.shape[0] or y >= out.shape[1] or z >= out.shape[2]:
        return
    if step == 0:
        out[x, y, z] = src[x, y, z]


class TestWhatLowers:
    def _arrays(self):
        src = np.asfortranarray(np.random.default_rng(2).random((7, 5, 4)))
        return src, np.zeros((7, 5, 4), order="F")

    def test_guards_give_the_box(self):
        src, out = self._arrays()
        kernel = Kernel("box", _box_body)
        cfg = LaunchConfig.for_domain(out.shape, (4, 4, 4))
        lowered = lower(kernel, [src, out], cfg)
        assert lowered.box == ((1, 6), (0, 5), (0, 4))
        expect = np.zeros_like(out)
        interpret(kernel, cfg, (src, expect))
        kernel.execute(cfg, (src, out))
        assert np.array_equal(out, expect)

    def test_index_truth_is_a_guard(self):
        src, out = self._arrays()
        kernel = Kernel("truthy", _truthy_body)
        cfg = LaunchConfig.for_domain(out.shape, (1, 1, 1))
        assert lower(kernel, [src, out], cfg).box == ((1, 7), (0, 5), (0, 4))
        expect = np.zeros_like(out)
        interpret(kernel, cfg, (src, expect))
        kernel.execute(cfg, (src, out))
        assert np.array_equal(out, expect) and not out[0].any()

    @pytest.mark.parametrize("body, reason", [
        (_hole_body, "inside the box"),
        (_boundary_body, "outside the guarded box runs ops"),
        (_nested_body, "outside the guarded box runs ops"),
        (_corner_body, "outside the guarded box runs ops"),
        (_unguarded_body, "leaves the array"),
        (_workitem_body, "depends on the workgroup"),
    ])
    def test_refused_kernels_raise(self, body, reason):
        src, out = self._arrays()
        kernel = Kernel(body.__name__, body)
        cfg = LaunchConfig.for_domain(out.shape, (1, 1, 1))
        with pytest.raises(IrError, match=reason):
            kernel.execute(cfg, (src, out))
        assert not out.any()

    @pytest.mark.parametrize("body, first, second, reason", [
        (_branchy_body, 0, 1, "control flow"),
        (_sqrt_body, 4.0, 9.0, "leaves the traced dataflow"),
    ])
    def test_parameter_made_concrete_is_refused(self, body, first, second, reason):
        """A parameter that decides a branch or leaves the dataflow would
        bake the first launch's value into a replayed lowering."""
        src, out = self._arrays()
        kernel = Kernel(body.__name__, body)
        cfg = LaunchConfig.for_domain(out.shape, (4, 4, 4))
        for value in (first, second):
            with pytest.raises(IrError, match=reason):
                kernel.execute(cfg, (src, out, value))
        assert not out.any()


class TestThreads:
    def test_concurrent_launches_each_match_the_oracle(self):
        """Ranks and service workers are threads of one process, and the
        compiled function runs without the GIL: same-shape launches at once
        must each compute their own launch. More threads than cores and a
        short switch interval make interleaving likely."""
        kernel = make_gray_scott_kernel()
        interior = (24, 20, 16)
        nthreads = 4
        barrier = threading.Barrier(nthreads)
        outcome = {}

        def worker(t):
            u, v, un, vn = _fields(interior, seed=t)
            p = GrayScottParams(Du=0.1 + 0.05 * t, noise=0.02)
            cfg = _config(u.shape)
            results = []
            barrier.wait()
            for step in range(6):
                un, vn = np.zeros_like(un), np.zeros_like(vn)
                kernel.execute(cfg, kernel_args(u, v, un, vn, p, seed=t, step=step))
                results.append((un, vn))
            ok = True
            for step, (un, vn) in enumerate(results):
                ou, ov = np.zeros_like(un), np.zeros_like(vn)
                step_vectorized(u, v, ou, ov, p, seed=t, step=step)
                ok &= np.array_equal(un, ou) and np.array_equal(vn, ov)
            outcome[t] = ok

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(outcome[t] for t in range(nthreads))
