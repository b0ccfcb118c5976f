"""Table 3: rocprof counter comparison (HIP vs Julia kernels)."""

import pytest
from conftest import print_block

from repro.bench import table3


@pytest.fixture(scope="module")
def columns():
    result = table3.run()
    print_block("Table 3 (modeled vs paper)", table3.render(result))
    return result


def test_table3_regeneration(benchmark, columns):
    fresh = benchmark(table3.run)
    assert all(table3.shape_checks(fresh).values())


def test_table3_durations_match_paper(columns):
    for c in columns:
        assert c.duration_ms == pytest.approx(c.paper["avg_duration_ms"], rel=0.1)


def test_table3_rocprof_on_simulated_device(benchmark):
    """The same counters out of the *executed* mini-scale device path."""

    from repro.core.params import GrayScottParams
    from repro.core.stencil import kernel_args, make_gray_scott_kernel
    from repro.gpu.kernel import LaunchConfig
    from repro.gpu.memory import Device
    from repro.gpu.rocprof import kernel_stats
    from repro.observe import trace as observe

    def run():
        with observe.session() as tracer:
            device = Device(name="gcd0", backend="julia")
            n = 16
            u = device.zeros((n, n, n), name="u")
            v = device.zeros((n, n, n), name="v")
            un = device.zeros((n, n, n), name="u_temp")
            vn = device.zeros((n, n, n), name="v_temp")
            kernel = make_gray_scott_kernel()
            cfg = LaunchConfig.for_domain((n, n, n), (8, 8, 8))
            for step in range(3):
                args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=step)
                device.launch(kernel, cfg.grid, cfg.workgroup, args)
        return kernel_stats(tracer.spans)

    stats = benchmark(run)["_kernel_gray_scott"]
    assert stats.calls == 3
    assert stats.avg_fetch_bytes > 0
