import numpy as np
import pytest

from repro.cluster.frontier import GcdSpec
from repro.gpu.cache import (
    StencilTrafficModel,
    TraceCacheSim,
    effective_fetch_cells,
    effective_write_cells,
    seven_point_offsets,
)
from repro.util.errors import GpuError
from tests.oracles.cache import ReferenceCache


class TestEffectiveSizes:
    """Paper Eqs. (4a)/(4b)."""

    def test_eq4a_cube(self):
        L = 1024
        assert effective_fetch_cells((L, L, L)) == L**3 - 8 - 12 * (L - 2)

    def test_eq4b_cube(self):
        L = 1024
        assert effective_write_cells((L, L, L)) == (L - 2) ** 3

    def test_eq4a_paper_value(self):
        # 8.589 GB for L=1024 doubles (paper Section 5.1)
        nbytes = effective_fetch_cells((1024,) * 3) * 8
        assert nbytes == pytest.approx(8.589e9, rel=0.01)

    def test_box_generalization(self):
        n = (8, 6, 4)
        assert effective_fetch_cells(n) == 8 * 6 * 4 - 8 - 4 * (6 + 4 + 2)
        assert effective_write_cells(n) == 6 * 4 * 2

    def test_degenerate(self):
        assert effective_write_cells((2, 2, 2)) == 0
        assert effective_fetch_cells((1, 1, 1)) == 1


class TestPassesFor:
    def test_small_array_one_pass(self):
        model = StencilTrafficModel(GcdSpec())
        passes = model.passes_for((64, 64, 64), 8, seven_point_offsets())
        assert passes == 1  # 3 planes of 64^2 doubles = 98 KB << 8 MB

    def test_paper_size_three_passes(self):
        model = StencilTrafficModel(GcdSpec())
        passes = model.passes_for((1024, 1024, 1024), 8, seven_point_offsets())
        assert passes == 3  # one 8.4 MB plane exceeds the 8 MB TCC

    def test_boundary_of_fit(self):
        # plane of n0*n1 doubles; pick sizes straddling 8 MB / 3 planes
        model = StencilTrafficModel(GcdSpec())
        small = model.passes_for((512, 512, 512), 8, seven_point_offsets())
        assert small == 1  # 3 * 2 MB planes fit
        big = model.passes_for((1100, 1100, 64), 8, seven_point_offsets())
        assert big == 3

    def test_center_only_single_pass(self):
        model = StencilTrafficModel(GcdSpec())
        assert model.passes_for((2048, 2048, 64), 8, {(0, 0, 0)}) == 1

    def test_empty_offsets(self):
        model = StencilTrafficModel(GcdSpec())
        assert model.passes_for((64, 64, 64), 8, set()) == 0

    def test_row_blowup(self):
        # cache smaller than 3 rows: every (y, z) offset pair streams
        tiny = GcdSpec(tcc_bytes=1024)
        model = StencilTrafficModel(tiny)
        passes = model.passes_for((1024, 64, 64), 8, seven_point_offsets())
        assert passes == 9  # 3 z-offsets x 3 y-offsets


class TestEstimate:
    def test_table3_fetch_write(self):
        """FETCH/WRITE magnitudes of Table 3 at 1024^3."""
        model = StencilTrafficModel(GcdSpec())
        est = model.estimate(
            (1024,) * 3, 8,
            {"u": seven_point_offsets()},
            {"u_temp": {(0, 0, 0)}},
        )
        assert est.fetch_bytes == pytest.approx(25.77e9, rel=0.01)  # paper: 25.08
        assert est.write_bytes == pytest.approx(8.59e9, rel=0.01)  # paper: 8.35

    def test_two_variables_double(self):
        model = StencilTrafficModel(GcdSpec())
        one = model.estimate((256,) * 3, 8, {"u": seven_point_offsets()}, {"ut": {(0, 0, 0)}})
        two = model.estimate(
            (256,) * 3, 8,
            {"u": seven_point_offsets(), "v": seven_point_offsets()},
            {"ut": {(0, 0, 0)}, "vt": {(0, 0, 0)}},
        )
        assert two.fetch_bytes == 2 * one.fetch_bytes
        assert two.write_bytes == 2 * one.write_bytes

    def test_hit_rate_structure(self):
        """TCC requests/misses give the ~50% hit rates of Table 3."""
        model = StencilTrafficModel(GcdSpec())
        est = model.estimate(
            (1024,) * 3, 8,
            {"u": seven_point_offsets()},
            {"u_temp": {(0, 0, 0)}},
        )
        # 8 requests per line (7 load offsets + 1 store), 4 misses
        assert est.hit_rate == pytest.approx(0.5, abs=0.05)

    def test_non_3d_rejected(self):
        model = StencilTrafficModel(GcdSpec())
        with pytest.raises(GpuError):
            model.estimate((8, 8), 8, {}, {})


class TestTraceCacheSim:
    def test_too_small_cache_rejected(self):
        with pytest.raises(GpuError):
            TraceCacheSim(capacity_bytes=64, line_bytes=64, associativity=16)

    def test_halo_wider_than_the_array_rejected(self):
        # radius 1 on a 2-cell axis leaves no interior cell to replay
        sim = TraceCacheSim(1 << 20)
        with pytest.raises(GpuError, match="no interior cells"):
            sim.multi_sweep((8, 8, 2), 8, {"u": seven_point_offsets()}, {})

    def test_fetch_counts_loads_only(self):
        # one 64 B line per array: 8 cells of 8 B, no halo
        sim = TraceCacheSim(capacity_bytes=1 << 20)
        est = sim.multi_sweep((8, 1, 1), 8, {"a": {(0, 0, 0)}}, {"b": {(0, 0, 0)}})
        assert est.fetch_bytes == 64
        assert est.write_bytes == 64
        assert sim.misses == 2 and sim.load_misses == 1 and sim.hits == 14

    def test_lru_eviction(self):
        # 2 sets x 2 ways of 64B lines = 256 B cache; the arrays' bases
        # are page-aligned, so every one-line array maps to set 0
        def misses(narrays):
            sim = TraceCacheSim(capacity_bytes=256, line_bytes=64, associativity=2)
            loads = {f"a{n}": {(0, 0, 0)} for n in range(narrays)}
            return sim.multi_sweep((8, 1, 1), 8, loads, {}).tcc_misses

        assert misses(2) == 2  # both lines stay resident
        assert misses(3) == 24  # cycling 3 lines through 2 ways: LRU always misses

    @staticmethod
    def _fetch(capacity, shape, itemsize):
        sim = TraceCacheSim(capacity_bytes=capacity)
        return sim.multi_sweep(
            shape, itemsize, {"u": seven_point_offsets()}, {}
        ).fetch_bytes

    def test_validates_analytic_model_fits_case(self):
        """Planes fit in cache -> traffic ~= 1x array bytes."""
        shape = (24, 24, 24)
        itemsize = 8
        fetch = self._fetch(1 << 20, shape, itemsize)  # 1 MB holds the array
        array_bytes = np.prod(shape) * itemsize
        assert fetch <= 1.1 * array_bytes

    def test_validates_analytic_model_thrash_case(self):
        """Planes exceed cache -> traffic ~= 3x array bytes (Table 3)."""
        shape = (64, 64, 24)
        itemsize = 8
        fetch = self._fetch(16 * 1024, shape, itemsize)  # < 1 plane (32 KB)
        array_bytes = int(np.prod(shape)) * itemsize
        passes = fetch / array_bytes
        assert 2.3 < passes <= 3.2

    def test_model_vs_trace_agreement_both_sides(self):
        """The analytic pass count brackets the exact simulation."""
        itemsize = 8
        for shape, capacity in (((24, 24, 16), 1 << 20), ((48, 48, 16), 8 * 1024)):
            spec = GcdSpec(tcc_bytes=capacity)
            analytic = StencilTrafficModel(spec).passes_for(
                shape, itemsize, seven_point_offsets()
            )
            fetch = self._fetch(capacity, shape, itemsize)
            measured = fetch / (np.prod(shape) * itemsize)
            assert abs(measured - analytic) < 0.75, (shape, capacity, measured, analytic)


class TestTiledReplay:
    """Tile-blocked sweeps replay on the same engine as Fortran order."""

    SHAPE = (14, 12, 10)  # interior 12 x 10 x 8 for a radius-1 stencil
    LOADS = {"u": seven_point_offsets(), "v": seven_point_offsets()}
    STORES = {"ut": {(0, 0, 0)}, "vt": {(0, 0, 0)}}

    @pytest.mark.parametrize("tile", [
        (4, 5, 2),  # divides the interior
        (5, 3, 3),  # leaves a ragged last tile on every axis
        (40, 40, 40),  # wider than the interior: one tile
        (1, 1, 1),  # one cell per segment
    ])
    @pytest.mark.parametrize("capacity", [16 * 1024, 96 * 1024])
    def test_matches_per_access_oracle(self, tile, capacity):
        sim = TraceCacheSim(capacity)
        ref = ReferenceCache(capacity)
        est = sim.multi_sweep(self.SHAPE, 8, self.LOADS, self.STORES, tile)
        assert est == ref.multi_sweep(self.SHAPE, 8, self.LOADS, self.STORES, tile)
        assert (sim.hits, sim.misses, sim.load_misses) == (
            ref.hits, ref.misses, ref.load_misses
        )

    def test_whole_interior_tile_is_fortran_order(self):
        untiled = TraceCacheSim(16 * 1024).multi_sweep(
            self.SHAPE, 8, self.LOADS, self.STORES
        )
        one_tile = TraceCacheSim(16 * 1024).multi_sweep(
            self.SHAPE, 8, self.LOADS, self.STORES, (12, 10, 8)
        )
        assert one_tile == untiled

    def test_tiling_changes_the_stream(self):
        # 8 KiB holds ~5 rows of the 12 x 10 planes: tiling y moves reuse
        untiled = TraceCacheSim(8 * 1024).multi_sweep(
            self.SHAPE, 8, self.LOADS, self.STORES
        )
        tiled = TraceCacheSim(8 * 1024).multi_sweep(
            self.SHAPE, 8, self.LOADS, self.STORES, (12, 2, 8)
        )
        assert tiled.tcc_requests == untiled.tcc_requests
        assert tiled.tcc_misses != untiled.tcc_misses


class TestPackingLimits:
    """Geometries the replay cannot pack are errors, not a slow path."""

    def test_row_too_long_for_the_access_packing(self):
        sim = TraceCacheSim(64 * 1024)
        with pytest.raises(GpuError, match="31-bit"):
            sim.multi_sweep(
                (2**28, 4, 4), 8, {"u": seven_point_offsets()}, {"ut": {(0, 0, 0)}}
            )
        assert (sim.hits, sim.misses) == (0, 0)

    def test_too_many_sets_for_the_set_packing(self):
        with pytest.raises(GpuError, match="30 bits"):
            TraceCacheSim(2**30 * 64 * 16)


@pytest.mark.slow
class TestPaperScaleSweeps:
    """Acceptance scale (marked slow; run with ``-m slow``)."""

    def test_L256_two_variable_sweep_under_60s(self):
        from repro.gpu.proxy import kernel_access_pattern

        import time

        loads, stores = kernel_access_pattern(2)
        sim = TraceCacheSim(8 * 1024 * 1024)
        t0 = time.perf_counter()
        est = sim.multi_sweep((256, 256, 256), 8, loads, stores)
        wall = time.perf_counter() - t0
        assert wall < 60.0, f"L=256 sweep took {wall:.1f}s"
        assert est.tcc_misses > 0 and est.fetch_bytes > 0

    def test_L192_vector_at_least_20x_faster_and_identical(self):
        from repro.gpu.proxy import kernel_access_pattern

        import time

        loads, stores = kernel_access_pattern(2)
        vec = TraceCacheSim(8 * 1024 * 1024)
        t0 = time.perf_counter()
        est_v = vec.multi_sweep((192,) * 3, 8, loads, stores)
        vec_s = time.perf_counter() - t0
        ref = ReferenceCache(8 * 1024 * 1024)
        t0 = time.perf_counter()
        est_s = ref.multi_sweep((192,) * 3, 8, loads, stores)
        ref_s = time.perf_counter() - t0
        assert est_v == est_s
        assert (vec.hits, vec.misses, vec.load_misses) == (
            ref.hits, ref.misses, ref.load_misses
        )
        assert ref_s / vec_s >= 20.0, f"only {ref_s / vec_s:.1f}x"
