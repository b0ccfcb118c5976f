"""Micro-benchmarks of the stencil: the native kernel against its oracles.

Not a paper figure: these measure this machine's throughput of the
Gray-Scott kernel compiled to C (cells/s) through ``Kernel.execute``,
the production path of both the CPU backend and the simulated GPU,
against the NumPy oracle emitter of the same launch plan and the
scalar loop oracle — the reproduction's own performance story.
"""

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.kernel import LaunchConfig
from tests.oracles.lower import lower_numpy
from tests.oracles.rand import axis_keys, uniform_into
from tests.oracles.stencil import step_reference


def _fields(n):
    shape = (n + 2, n + 2, n + 2)
    rng = np.random.default_rng(0)
    u = np.asfortranarray(rng.random(shape))
    v = np.asfortranarray(rng.random(shape))
    return u, v, np.zeros(shape, order="F"), np.zeros(shape, order="F")


def _launch(n, params):
    kernel = make_gray_scott_kernel()
    u, v, un, vn = _fields(n)
    config = LaunchConfig.for_domain(u.shape[::-1], (min(64, n + 2), 1, 1))
    return kernel, config, kernel_args(u, v, un, vn, params, seed=1, step=0)


def _lowered_step(n, params):
    """One Gray-Scott launch through ``Kernel.execute`` (the native path)."""
    kernel, config, args = _launch(n, params)
    kernel.execute(config, args)  # lower and compile once, outside the timing

    def run():
        kernel.execute(config, args)

    return run


@pytest.mark.parametrize("n", [16, 32, 64, 96])
def test_step_native_throughput(benchmark, n):
    benchmark(_lowered_step(n, GrayScottParams()))
    benchmark.extra_info["cells"] = n**3


@pytest.mark.parametrize("n", [32, 64])
def test_step_numpy_oracle_throughput(benchmark, n):
    """The same launch plan emitted as fused whole-array NumPy (the
    oracle the native kernel replaced); compare with the native case."""
    kernel, config, args = _launch(n, GrayScottParams())
    benchmark(lower_numpy(kernel, list(args), config), list(args))
    benchmark.extra_info["cells"] = n**3


def test_step_native_no_noise(benchmark):
    """noise=0 still draws the RNG field: ``0.0 * r`` can be ``-0.0``,
    which changes the sum's sign bit for a ``-0.0`` term, so skipping
    the draw is not bit-safe. Compare with the throughput case to see
    what the noise term's arithmetic alone costs."""
    benchmark(_lowered_step(48, GrayScottParams(noise=0.0)))


def test_step_reference_small(benchmark):
    """The scalar ground truth (tiny grid: it is O(N^3) Python)."""
    u, v, un, vn = _fields(8)
    p = GrayScottParams()

    def run():
        step_reference(u, v, un, vn, p, seed=1, step=0)

    benchmark(run)


def test_noise_field_generation(benchmark):
    """The NumPy oracle's noise term: the in-place k-major hash."""
    keys = [1, 0] + [axis_keys(0, 64, axis, 3) for axis in range(3)]
    out, tmp = np.empty((64, 64, 64)), np.empty((64, 64, 64))
    benchmark(uniform_into, keys, out, tmp)
