import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rngs import RngStream, _philox_keys, seed_for


class TestSeedFor:
    def test_deterministic(self):
        a = np.random.Generator(np.random.Philox(seed_for(1, "x", 2)))
        b = np.random.Generator(np.random.Philox(seed_for(1, "x", 2)))
        assert a.random() == b.random()

    def test_key_sensitivity(self):
        a = np.random.Generator(np.random.Philox(seed_for(1, "x", 2)))
        b = np.random.Generator(np.random.Philox(seed_for(1, "x", 3)))
        assert a.random() != b.random()

    def test_root_seed_sensitivity(self):
        a = np.random.Generator(np.random.Philox(seed_for(1, "x")))
        b = np.random.Generator(np.random.Philox(seed_for(2, "x")))
        assert a.random() != b.random()

    def test_string_and_int_keys_mix(self):
        assert seed_for(0, "a", 1).spawn_key != seed_for(0, "a", 2).spawn_key

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            seed_for(0, -1)

    def test_bad_key_type_rejected(self):
        with pytest.raises(TypeError):
            seed_for(0, 1.5)  # type: ignore[arg-type]

    def test_int_key_wider_than_64_bits_rejected(self):
        # masking to 64 bits made 0 and 2**64 the same stream
        seed_for(0, 2**64 - 1)
        with pytest.raises(ValueError, match="64 bits"):
            seed_for(0, 2**64)
        with pytest.raises(ValueError, match="64 bits"):
            RngStream(1).generator(2**64)


class TestRngStream:
    def test_child_extends_key(self):
        stream = RngStream(7, ("noise",))
        child = stream.child(3)
        assert child.key == ("noise", 3)
        assert child.root_seed == 7

    def test_generator_reproducible(self):
        s = RngStream(7)
        assert s.generator("a").random() == s.generator("a").random()

    def test_independent_substreams(self):
        s = RngStream(7)
        x = s.generator("a").random(100)
        y = s.generator("b").random(100)
        assert not np.array_equal(x, y)

    def test_uniform_field_range_and_shape(self):
        s = RngStream(7, ("noise",))
        field = s.uniform_field((4, 5, 6), "step", 3)
        assert field.shape == (4, 5, 6)
        assert field.min() >= -1.0
        assert field.max() < 1.0

    def test_uniform_field_deterministic(self):
        s = RngStream(7, ("noise",))
        a = s.uniform_field((3, 3, 3), 0)
        b = s.uniform_field((3, 3, 3), 0)
        assert np.array_equal(a, b)

    def test_frozen(self):
        s = RngStream(7)
        with pytest.raises(Exception):
            s.root_seed = 8  # type: ignore[misc]


# 2**160 spans six words, more than SeedSequence's four-word pool
_ROOTS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**160])
_PART = st.one_of(
    st.integers(0, 2**64 - 1), st.text(max_size=6),
)
# 0 to 8 key parts; ints are two words, so keys span 0 to 16 words
_KEYS = st.lists(_PART, max_size=8).map(tuple)
_TAILS = st.one_of(
    st.lists(st.integers(0, 2**64 - 1), max_size=40),
    st.lists(st.text(max_size=6), max_size=40),
)


class TestBatchedDraws:
    """``RngStream.normals`` against per-tail ``SeedSequence`` builds."""

    @settings(max_examples=150, deadline=None)
    @given(root=_ROOTS, key=_KEYS, tails=_TAILS)
    def test_philox_keys_equal_seed_sequence_state(self, root, key, tails):
        keys = _philox_keys(root, key, tails)
        assert keys.shape == (len(tails), 2)
        for row, tail in zip(keys, tails):
            expected = seed_for(root, *key, tail).generate_state(2, np.uint64)
            assert row.tolist() == expected.tolist()

    @settings(max_examples=60, deadline=None)
    @given(root=_ROOTS, key=_KEYS, tails=_TAILS)
    def test_normals_equal_per_tail_generators(self, root, key, tails):
        stream = RngStream(root, key[:2])
        got = stream.normals(*key[2:], tails=tails, scale=0.25)
        expected = [
            stream.generator(*key[2:], tail).normal(0.0, 0.25) for tail in tails
        ]
        assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 1000])
    def test_tail_counts(self, count):
        stream = RngStream(2023, ("lustre",))
        tails = [f"3:{node}" for node in range(count)]
        got = stream.normals("write", 32768, tails=tails, scale=0.1)
        assert got.shape == (count,)
        expected = [
            np.random.Generator(
                np.random.Philox(seed_for(2023, "lustre", "write", 32768, t))
            ).normal(0.0, 0.1)
            for t in tails
        ]
        assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_mixed_tail_kinds_rejected(self):
        with pytest.raises(TypeError, match="all int or all str"):
            RngStream(1).normals(tails=[0, "1"], scale=1.0)

    def test_tail_range_checked(self):
        with pytest.raises(ValueError, match="negative"):
            RngStream(1).normals(tails=[-1], scale=1.0)
        with pytest.raises(ValueError, match="64 bits"):
            RngStream(1).normals(tails=[1, 2**64], scale=1.0)


def _draw_task(index):
    from repro.util.rngs import task_stream

    return task_stream(2023, index, "noise").generator("x").random(8)


class TestTaskStream:
    def test_keyed_by_task_index_not_worker(self):
        from repro.util.rngs import task_stream

        a = task_stream(7, 3).generator("x").random(16)
        b = task_stream(7, 3).generator("x").random(16)
        assert np.array_equal(a, b)
        c = task_stream(7, 4).generator("x").random(16)
        assert not np.array_equal(a, c)

    def test_extra_key_separates_streams(self):
        from repro.util.rngs import task_stream

        a = task_stream(7, 0, "noise").generator("x").random(16)
        b = task_stream(7, 0, "field").generator("x").random(16)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        from repro.util.rngs import task_stream

        with pytest.raises(ValueError):
            task_stream(7, -1)

    def test_draws_invariant_under_jobs(self):
        # the satellite regression: the same tasks drawn serially and
        # through the pool (any worker count) produce identical numbers
        from repro.par import run_tasks

        serial = run_tasks(_draw_task, range(8), jobs=1)
        par = run_tasks(_draw_task, range(8), jobs=3, chunksize=1)
        for a, b in zip(serial, par):
            assert np.array_equal(a, b)
