"""Property tests: IR round-trip and rewrite-pass bit-identity.

Two invariants hold for every seed/parameter draw:

- round-trip: tracing a kernel into the stencil IR always yields a
  func that verifies clean, with the Listing 4 op counts;
- bit-identity: evaluating the workflow module before and after ANY
  legal pass pipeline produces bitwise-identical arrays, and matches
  the per-workitem kernel interpreter
  (:func:`tests.oracles.kernel_interp.interpret`) exactly;
- lowering: the lowered kernel (the execution path) equals that
  interpreter and ``ir.interp`` bitwise, for both float precisions, any
  interior shape and offset, and any per-func pipeline.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import GrayScottParams
from repro.ir.build import gray_scott_func, laplacian_func, workflow_module
from repro.ir.passes import PassManager
from tests.oracles.ir_interp import evaluate_func, evaluate_module
from tests.oracles.kernel_interp import interpret

EXTENT = 6

params_strategy = st.builds(
    GrayScottParams,
    F=st.floats(0.01, 0.08),
    k=st.floats(0.05, 0.07),
    noise=st.floats(0.0, 0.2),
)

#: every subsequence of the default pipeline in order, plus two
#: reorderings — all legal (fusion first or never is what differs)
pipelines = st.one_of(
    st.permutations(["rle", "cse", "dse"]),
    st.just(["fuse"]),
    st.just(["fuse", "rle"]),
    st.just(["fuse", "rle", "cse", "dse"]),
    st.just(["fuse", "cse", "rle", "dse"]),
    st.just(["dse", "fuse", "rle", "cse"]),
)


def _arrays(seed: int, dtype="float64") -> dict:
    rng = np.random.default_rng(seed)
    shape = (EXTENT,) * 3

    def draw():
        return np.asfortranarray(rng.random(shape, dtype=np.float64)).astype(
            dtype, order="F"
        )

    return {
        "u": draw(), "v": draw(),
        "u_new": np.zeros(shape, dtype=dtype, order="F"),
        "v_new": np.zeros(shape, dtype=dtype, order="F"),
        "lap": np.zeros(shape, dtype=dtype, order="F"),
    }


class TestRoundTrip:
    @given(params_strategy, st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_to_ir_verifies(self, params, seed):
        func = gray_scott_func(params, seed=seed, extent=EXTENT)
        assert func.verify() == []
        assert len(func.unique_loads) == 14
        assert len(func.unique_stores) == 2

    @given(params_strategy)
    @settings(max_examples=25, deadline=None)
    def test_laplacian_round_trip(self, params):
        func = laplacian_func(params, extent=EXTENT)
        assert func.verify() == []
        assert len(func.unique_loads) == 7

    @given(params_strategy, st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_module_verifies(self, params, seed):
        from repro.core.settings import GrayScottSettings

        settings_obj = GrayScottSettings(
            L=EXTENT, F=params.F, k=params.k, noise=params.noise, seed=seed
        )
        module = workflow_module(settings_obj, extent=EXTENT)
        assert module.verify() == []


class TestRewriteBitIdentity:
    @given(pipelines, st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pipeline_preserves_results_bitwise(self, pipeline, seed):
        module = workflow_module(extent=EXTENT)
        rewritten, _ = PassManager(pipeline).run(module)

        reference = _arrays(seed)
        optimized = {k: a.copy(order="F") for k, a in reference.items()}
        evaluate_module(module, reference)
        evaluate_module(rewritten, optimized)

        for name in reference:
            assert np.array_equal(reference[name], optimized[name]), (
                f"array {name!r} diverged under pipeline {pipeline}"
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_interp_matches_kernel_interpreter(self, seed):
        from repro.core.stencil import kernel_args, make_gray_scott_kernel
        from repro.gpu.kernel import LaunchConfig

        func = gray_scott_func(extent=EXTENT)
        arrays = _arrays(seed)
        evaluate_func(func, arrays)

        kernel_side = _arrays(seed)
        kernel = make_gray_scott_kernel()
        args = kernel_args(
            kernel_side["u"], kernel_side["v"],
            kernel_side["u_new"], kernel_side["v_new"],
            GrayScottParams(), seed=42, step=0,
        )
        interpret(kernel, LaunchConfig(grid=(EXTENT,) * 3, workgroup=(1, 1, 1)), args)

        for name in ("u_new", "v_new"):
            assert np.array_equal(arrays[name], kernel_side[name])


def _traced_func(params, seed, step, start, pipeline):
    """The cost trace's func for these scalars, after ``pipeline``.

    Traced over 6^3 scratch: the affine trace is the same at any extent,
    and ``evaluate_func`` takes its box from the arrays it is given.
    """
    from repro.core.stencil import kernel_args, make_gray_scott_kernel
    from repro.gpu.jit import trace_kernel
    from repro.ir.core import from_trace

    scratch = [np.ones((EXTENT,) * 3, order="F") for _ in range(4)]
    args = kernel_args(*scratch, params, seed=seed, step=step, global_start=start)
    func = from_trace(trace_kernel(make_gray_scott_kernel(), args))
    return PassManager(pipeline).run_func(func)[0]


def _fields(interior, seed, dtype):
    shape = tuple(n + 2 for n in interior)
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random(shape)).astype(dtype, order="F")
    v = np.asfortranarray(rng.random(shape)).astype(dtype, order="F")
    return u, v


#: every per-func pipeline: any subset of rle/cse/dse in any order
func_pipelines = st.lists(st.sampled_from(["rle", "cse", "dse"]), unique=True)


class TestLoweredBitIdentity:
    @given(
        st.sampled_from(["float64", "float32"]),
        st.tuples(*[st.integers(1, 6)] * 3),
        st.tuples(*[st.integers(0, 1000)] * 3),
        st.integers(0, 2**31 - 1),
        st.integers(0, 1000),
        params_strategy,
        st.booleans(),
        func_pipelines,
    )
    @settings(max_examples=25, deadline=None)
    def test_lowered_equals_interpreters(
        self, dtype, interior, start, seed, step, params, quiet, pipeline
    ):
        from dataclasses import replace

        from repro.core.stencil import kernel_args, make_gray_scott_kernel
        from repro.gpu.kernel import LaunchConfig
        from repro.ir.lower import lower

        if quiet:
            params = replace(params, noise=0.0)
        u, v = _fields(interior, seed, dtype)
        outs = {name: (np.zeros_like(u), np.zeros_like(v))
                for name in ("lowered", "interp", "ir")}
        kernel = make_gray_scott_kernel()
        config = LaunchConfig.for_domain(u.shape[::-1], (4, 4, 4))

        def args(name):
            return kernel_args(u, v, *outs[name], params, seed=seed,
                               step=step, global_start=start)

        lowered = lower(kernel, list(args("lowered")), config, passes=pipeline)
        lowered(list(args("lowered")))
        interpret(kernel, config, args("interp"))
        evaluate_func(
            _traced_func(params, seed, step, start, pipeline),
            {"arg0": u, "arg1": v, "arg2": outs["ir"][0], "arg3": outs["ir"][1]},
        )
        for name in ("interp", "ir"):
            for got, want in zip(outs["lowered"], outs[name]):
                assert np.array_equal(got, want), (name, pipeline)

    def test_replay_binds_launch_parameters(self):
        """The memo keys scalars by type, so the second launch reuses the
        first one's lowering; its seed/step/Du must still be its own."""
        from repro.core.stencil import kernel_args, make_gray_scott_kernel
        from repro.gpu.kernel import LaunchConfig
        from tests.oracles.stencil import step_reference

        u, v = _fields((5, 4, 3), 8, "float64")
        kernel = make_gray_scott_kernel()
        config = LaunchConfig.for_domain(u.shape[::-1], (4, 4, 4))
        launches = [
            (GrayScottParams(Du=0.2), 3, 0, (0, 0, 0)),
            (GrayScottParams(Du=0.11, F=0.03, noise=0.2), 5, 7, (4, 1, 9)),
        ]
        for params, seed, step, start in launches:
            got = (np.zeros_like(u), np.zeros_like(v))
            want = (np.zeros_like(u), np.zeros_like(v))
            kernel.execute(config, kernel_args(
                u, v, *got, params, seed=seed, step=step, global_start=start))
            step_reference(u, v, *want, params, seed=seed, step=step,
                           global_start=start)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
