"""Differential properties: production hot paths vs test oracles.

Each hot path has one production implementation; these properties
drive randomized inputs through it and through an oracle, and require
bit-identical outputs:

- the cache simulator's replay vs an independent per-access LRU
  (:mod:`tests.oracles.cache`): same HIT/MISS/load-miss counters and
  traffic estimate, untiled and tiled, across consecutive sweeps;
- the memoized JIT launch trace vs a cold re-trace (same IR, flops,
  access records);
- :func:`~repro.mpi.datatypes.pack`/``unpack`` vs a gather/scatter over
  the type's element offsets (:mod:`tests.oracles.datatypes`): same
  wire bytes, same scattered array, for strided and nested types.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stencil import make_laplacian_kernel
from repro.gpu import cache
from repro.gpu.cache import TraceCacheSim
from repro.gpu.jit import TraceMemo, trace_kernel
from repro.mpi.datatypes import VectorDatatype, pack, unpack
from tests.oracles.cache import ReferenceCache
from tests.oracles.datatypes import pack_reference, unpack_reference

# -- cache sweep ------------------------------------------------------------

offset_3d = st.tuples(
    st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)
)


@st.composite
def tile_for(draw, interior):
    """A tile that divides each interior extent, leaves a ragged last
    tile, or is wider than the interior, chosen per axis."""
    tile = []
    for n in interior:
        ragged = [t for t in range(2, n) if n % t]
        kind = draw(st.sampled_from(["divides", "ragged", "wider"]))
        if kind == "divides":
            t = draw(st.sampled_from([t for t in range(1, n + 1) if n % t == 0]))
        elif kind == "ragged" and ragged:
            t = draw(st.sampled_from(ragged))
        else:
            t = n + draw(st.integers(1, 4))
        tile.append(t)
    return tuple(tile)


@st.composite
def sweep_case(draw):
    # up to ~110 KB per array: past the smaller caches, so the cell
    # order (Fortran or tiled) decides which lines survive
    shape = (
        draw(st.integers(5, 40)), draw(st.integers(5, 20)), draw(st.integers(5, 10))
    )
    itemsize = draw(st.sampled_from([4, 8]))
    narrays = draw(st.integers(1, 2))
    loads = {}
    stores = {}
    for i in range(narrays):
        loads[f"a{i}"] = set(
            draw(st.lists(offset_3d, min_size=1, max_size=7, unique=True))
        )
        stores[f"a{i}_out"] = {(0, 0, 0)}
    # 96 KiB is 96 sets, not a power of two
    capacity = draw(
        st.sampled_from([16 * 1024, 64 * 1024, 96 * 1024, 1024 * 1024])
    )
    radius = max(abs(d) for offsets in loads.values() for o in offsets for d in o)
    interior = tuple(n - 2 * radius for n in shape)
    tile = draw(st.one_of(st.none(), tile_for(interior)))
    return shape, itemsize, loads, stores, capacity, tile


def _counters(sim):
    return sim.hits, sim.misses, sim.load_misses


class TestCacheReplayVsOracle:
    @given(sweep_case(), st.sampled_from([100, 5_000, cache._CHUNK_ACCESSES]))
    @settings(max_examples=60, deadline=None)
    def test_replay_matches_per_access_lru(self, case, chunk):
        # small chunks cut the stream anywhere between segments: per-set
        # order, and so every counter, must survive each cut
        shape, itemsize, loads, stores, capacity, tile = case
        sim = TraceCacheSim(capacity)
        ref = ReferenceCache(capacity)
        with patch.object(cache, "_CHUNK_ACCESSES", chunk):
            est = sim.multi_sweep(shape, itemsize, loads, stores, tile)
        assert est == ref.multi_sweep(shape, itemsize, loads, stores, tile)
        assert _counters(sim) == _counters(ref)
        assert est.tcc_hits + est.tcc_misses == est.tcc_requests

    @given(sweep_case(), sweep_case(), sweep_case())
    @settings(max_examples=25, deadline=None)
    def test_three_consecutive_sweeps_carry_state(self, first, second, third):
        # one simulator replays a module's launches back to back, each
        # starting from the LRU state the previous one left behind; the
        # cache is the first case's for all three
        capacity = first[4]
        sim = TraceCacheSim(capacity)
        ref = ReferenceCache(capacity)
        for shape, itemsize, loads, stores, _, tile in (first, second, third):
            est = sim.multi_sweep(shape, itemsize, loads, stores, tile)
            assert est == ref.multi_sweep(shape, itemsize, loads, stores, tile)
            assert _counters(sim) == _counters(ref)


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

    ``nested`` builds the vector over a two-element vector, a type with
    no regular strided layout, so pack/unpack take the gather
    fallback.
    """
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int32]))
    base = _base_for(dtype)
    if nested:
        base = VectorDatatype(1, 2, 2, base=base).commit()
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
