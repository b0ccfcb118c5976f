import numpy as np
import pytest

from repro.gpu.rand import counter_hash, counter_uniform
from tests.oracles.stencil import uniform_field


class TestCounterUniform:
    def test_deterministic(self):
        assert counter_uniform(1, 2, 3) == counter_uniform(1, 2, 3)

    def test_key_sensitivity(self):
        assert counter_uniform(1, 2, 3) != counter_uniform(1, 2, 4)

    def test_order_sensitivity(self):
        assert counter_uniform(1, 2) != counter_uniform(2, 1)

    def test_range(self):
        samples = [counter_uniform(0, i) for i in range(2000)]
        assert min(samples) >= -1.0
        assert max(samples) < 1.0

    def test_roughly_uniform(self):
        samples = np.array([counter_uniform(9, i) for i in range(5000)])
        assert abs(samples.mean()) < 0.05
        # variance of U(-1,1) is 1/3
        assert samples.var() == pytest.approx(1 / 3, rel=0.1)

    def test_hash_is_64bit(self):
        h = counter_hash(123456789, 987654321)
        assert 0 <= h < 2**64


class TestUniformField:
    def test_matches_scalar_bitwise(self):
        seed, step = 42, 7
        field = uniform_field(seed, step, (3, 4, 5), (10, 20, 30))
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    expected = counter_uniform(seed, step, 10 + i, 20 + j, 30 + k)
                    assert field[i, j, k] == expected

    def test_fortran_ordered(self):
        field = uniform_field(0, 0, (4, 4, 4), (0, 0, 0))
        assert field.flags.f_contiguous

    def test_decomposition_invariance(self):
        """Two half-domains reproduce the slices of the full domain."""
        full = uniform_field(5, 1, (8, 4, 4), (0, 0, 0))
        lo = uniform_field(5, 1, (4, 4, 4), (0, 0, 0))
        hi = uniform_field(5, 1, (4, 4, 4), (4, 0, 0))
        assert np.array_equal(full[:4], lo)
        assert np.array_equal(full[4:], hi)

    def test_step_changes_field(self):
        a = uniform_field(5, 1, (4, 4, 4), (0, 0, 0))
        b = uniform_field(5, 2, (4, 4, 4), (0, 0, 0))
        assert not np.array_equal(a, b)


class TestTracedInterception:
    def test_traced_key_records_rand(self):
        from repro.gpu.jit import Affine, TracedFloat, TracedInt, Tracer

        tracer = Tracer("t")
        i = TracedInt(tracer, 2, Affine.symbol("x"))
        result = counter_uniform(1, 0, i, 3, 4)
        assert isinstance(result, TracedFloat)
        assert tracer.trace.rand_calls == 1
        # concrete value matches the untraced call
        assert result.value == counter_uniform(1, 0, 2, 3, 4)
