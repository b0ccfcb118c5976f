"""Differential properties: production hot paths vs test oracles.

Each hot path has one production implementation; these properties
drive randomized inputs through it and through an oracle, and require
bit-identical outputs:

- the cache simulator's vector sweep vs the same simulator forced onto
  its per-access fallback (:mod:`tests.oracles.cache`): same
  FETCH/WRITE/HIT/MISS counters and traffic estimate;
- the memoized JIT launch trace vs a cold re-trace (same IR, flops,
  access records);
- :func:`~repro.mpi.datatypes.pack`/``unpack`` vs a gather/scatter over
  the type's element offsets (:mod:`tests.oracles.datatypes`): same
  wire bytes, same scattered array, for strided and nested types.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stencil import make_laplacian_kernel
from repro.gpu.cache import TraceCacheSim
from repro.gpu.jit import TraceMemo, trace_kernel
from repro.mpi.datatypes import ContiguousDatatype, VectorDatatype, pack, unpack
from tests.oracles.cache import scalar_cache_sim
from tests.oracles.datatypes import pack_reference, unpack_reference

# -- cache sweep ------------------------------------------------------------

offset_3d = st.tuples(
    st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)
)


@st.composite
def sweep_case(draw):
    shape = tuple(draw(st.integers(5, 12)) for _ in range(3))
    itemsize = draw(st.sampled_from([4, 8]))
    narrays = draw(st.integers(1, 2))
    loads = {}
    stores = {}
    for i in range(narrays):
        loads[f"a{i}"] = set(
            draw(st.lists(offset_3d, min_size=1, max_size=7, unique=True))
        )
        stores[f"a{i}_out"] = {(0, 0, 0)}
    capacity = draw(st.sampled_from([16 * 1024, 64 * 1024, 1024 * 1024]))
    return shape, itemsize, loads, stores, capacity


class TestCacheSweepEngines:
    @given(sweep_case())
    @settings(max_examples=40, deadline=None)
    def test_vector_matches_scalar(self, case):
        shape, itemsize, loads, stores, capacity = case
        vec = TraceCacheSim(capacity)
        est_v = vec.multi_sweep(shape, itemsize, loads, stores)
        ref = scalar_cache_sim(capacity)
        est_s = ref.multi_sweep(shape, itemsize, loads, stores)
        assert est_v == est_s
        assert (vec.hits, vec.misses, vec.load_misses) == (
            ref.hits, ref.misses, ref.load_misses
        )

    @given(sweep_case(), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lazy_retention_survives_interleaving(self, case, seed):
        # consecutive vector sweeps keep the LRU state dense between
        # calls; scalar accesses in between force a materialization.
        # Any interleaving must land on exactly the per-access loop's
        # counters and final cache contents.
        shape, itemsize, loads, stores, capacity = case
        rng = np.random.default_rng(seed)
        vec = TraceCacheSim(capacity)
        ref = scalar_cache_sim(capacity)
        for round_ in range(3):
            vec.multi_sweep(shape, itemsize, loads, stores)
            ref.multi_sweep(shape, itemsize, loads, stores)
            if round_ < 2:
                lines = rng.integers(0, 4 * vec.num_sets, size=5)
                for line in lines:
                    assert vec.access(int(line)) == ref.access(int(line))
        assert (vec.hits, vec.misses, vec.load_misses) == (
            ref.hits, ref.misses, ref.load_misses
        )
        vec._materialize()  # flush the retained dense state
        assert [list(s) for s in vec._sets] == [list(s) for s in ref._sets]

    @given(sweep_case())
    @settings(max_examples=20, deadline=None)
    def test_single_sweep_engines_match(self, case):
        shape, itemsize, loads, _, capacity = case
        offsets = next(iter(loads.values()))
        vec = TraceCacheSim(capacity)
        vec.sweep(shape, itemsize, offsets)
        ref = scalar_cache_sim(capacity)
        ref.sweep(shape, itemsize, offsets)
        assert (vec.hits, vec.misses, vec.fetch_bytes) == (
            ref.hits, ref.misses, ref.fetch_bytes
        )


# -- JIT launch-trace memo --------------------------------------------------


@st.composite
def laplacian_launch(draw):
    n = draw(st.integers(5, 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    coeff = draw(st.floats(0.01, 2.0, allow_nan=False))
    dt = draw(st.floats(0.1, 1.5, allow_nan=False))
    shape = (n, n, n)
    u = np.ones(shape, dtype=dtype, order="F")
    out = np.zeros(shape, dtype=dtype, order="F")
    return (u, out, shape, float(coeff), float(dt))


class TestTraceMemoProperties:
    @given(laplacian_launch())
    @settings(max_examples=30, deadline=None)
    def test_memoized_trace_matches_cold_trace(self, args):
        kernel = make_laplacian_kernel()
        memo = TraceMemo()
        memoized = memo.trace(kernel, args)
        cold = trace_kernel(kernel, args)
        assert memoized.ir_lines == cold.ir_lines
        assert memoized.flops == cold.flops
        assert [str(a) for a in memoized.unique_loads] == [
            str(a) for a in cold.unique_loads
        ]
        assert [str(a) for a in memoized.unique_stores] == [
            str(a) for a in cold.unique_stores
        ]

    @given(laplacian_launch())
    @settings(max_examples=20, deadline=None)
    def test_repeat_launches_hit_the_memo(self, args):
        kernel = make_laplacian_kernel()
        memo = TraceMemo()
        first = memo.trace(kernel, args)
        second = memo.trace(kernel, args)
        assert second is first
        assert memo.hits == 1 and memo.misses == 1


# -- pack/unpack -------------------------------------------------------------


def _base_for(dtype):
    from repro.mpi.datatypes import DOUBLE, FLOAT, INT32

    return {np.float64: DOUBLE, np.float32: FLOAT, np.int32: INT32}[dtype]


@st.composite
def pack_case(draw, nested=False):
    """A committed vector type, an offset into a buffer, and the buffer.

    ``nested`` builds the vector over ``ContiguousDatatype(2)``, a type
    with no regular strided layout, so pack/unpack take the gather
    fallback.
    """
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int32]))
    base = _base_for(dtype)
    if nested:
        base = ContiguousDatatype(2, base=base).commit()
    count = draw(st.integers(1, 8))
    blocklength = draw(st.integers(1, 6))
    stride = blocklength + draw(st.integers(0, 8))
    dt = VectorDatatype(count, blocklength, stride, base=base).commit()
    offset = draw(st.integers(0, 5))
    size = offset + dt.extent_elements + draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if np.issubdtype(dtype, np.integer):
        buf = rng.integers(-1000, 1000, size=size).astype(dtype)
    else:
        buf = rng.standard_normal(size).astype(dtype)
    return dt, offset, buf


class TestStridedPackUnpack:
    @given(st.booleans().flatmap(pack_case))
    @settings(max_examples=80, deadline=None)
    def test_pack_paths_bit_identical(self, case):
        dt, offset, buf = case
        wire = pack(buf, dt, offset_elements=offset)
        expected = pack_reference(buf, dt, offset)
        assert wire.dtype == expected.dtype
        assert wire.tobytes() == expected.tobytes()

    @given(st.booleans().flatmap(pack_case))
    @settings(max_examples=80, deadline=None)
    def test_unpack_paths_bit_identical(self, case):
        dt, offset, buf = case
        wire = pack_reference(buf, dt, offset)
        out = np.zeros_like(buf)
        expected = np.zeros_like(buf)
        unpack(out, dt, wire, offset_elements=offset)
        unpack_reference(expected, dt, wire, offset)
        assert out.tobytes() == expected.tobytes()

    @given(pack_case(nested=True))
    @settings(max_examples=20, deadline=None)
    def test_nested_roundtrip_takes_gather_fallback(self, case):
        dt, offset, buf = case
        assert dt._strided_spec() is None
        out = np.zeros_like(buf)
        unpack(out, dt, pack(buf, dt, offset_elements=offset),
               offset_elements=offset)
        sel = dt.element_offsets() + offset
        assert np.array_equal(out[sel], buf[sel])
