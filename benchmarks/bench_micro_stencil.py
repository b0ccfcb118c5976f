"""Micro-benchmarks of the real Python stencil implementations.

Not a paper figure: these measure this machine's throughput of the
lowered Gray-Scott kernel (cells/s), the production path of both the
CPU backend and the simulated GPU, and the cost ratio against the
scalar loop oracle — the reproduction's own performance story.
"""

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.kernel import LaunchConfig
from tests.oracles.stencil import step_reference


def _fields(n):
    shape = (n + 2, n + 2, n + 2)
    rng = np.random.default_rng(0)
    u = np.asfortranarray(rng.random(shape))
    v = np.asfortranarray(rng.random(shape))
    return u, v, np.zeros(shape, order="F"), np.zeros(shape, order="F")


def _lowered_step(n, params):
    """One Gray-Scott launch through ``Kernel.execute`` (the lowered path)."""
    u, v, un, vn = _fields(n)
    kernel = make_gray_scott_kernel()
    config = LaunchConfig.for_domain(u.shape[::-1], (min(64, n + 2), 1, 1))
    args = kernel_args(u, v, un, vn, params, seed=1, step=0)
    kernel.execute(config, args)  # lower once, outside the timing

    def run():
        kernel.execute(config, args)

    return run


@pytest.mark.parametrize("n", [16, 32, 64, 96])
def test_step_vectorized_throughput(benchmark, n):
    benchmark(_lowered_step(n, GrayScottParams()))
    benchmark.extra_info["cells"] = n**3


def test_step_vectorized_no_noise_faster(benchmark):
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
    """The lowered kernel's noise term: the in-place k-major hash."""
    from repro.gpu.rand import axis_keys, uniform_into

    keys = [1, 0] + [axis_keys(0, 64, axis, 3) for axis in range(3)]
    out, tmp = np.empty((64, 64, 64)), np.empty((64, 64, 64))
    benchmark(uniform_into, keys, out, tmp)
