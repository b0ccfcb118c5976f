"""TCC (L2) cache traffic models for stencil kernels.

Why the measured FETCH_SIZE in Table 3 is ~3x the "effective" minimum
of Eq. (4a): the 7-point stencil reads each cell from three different
z-planes, and at 1024^3 one double-precision plane is 8.4 MB — larger
than the 8 MB TCC of a GCD — so the z +/- 1 reuse never hits and every
plane streams through the cache three times. The paper's effective
fetch (8.59 GB) vs. rocprof fetch (25.08 GB) is exactly this ratio.

Two models live here:

- :class:`StencilTrafficModel` — the analytic working-set model used at
  Frontier scale. Given the per-array stencil offset sets recovered by
  the tracing JIT, it decides how many *streaming passes* each array
  costs (1 if the z working set fits in cache, otherwise one per
  distinct z-offset, and so on hierarchically for y).
- :class:`TraceCacheSim` — an exact set-associative LRU simulator over
  the real access stream. Too slow for 1024^3 but exact at test sizes;
  ``tests/gpu/test_cache.py`` uses it to validate the analytic model on
  both sides of the fits-in-cache boundary.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.frontier import GcdSpec
from repro.util.errors import GpuError


@dataclass(frozen=True)
class TrafficEstimate:
    """Modeled memory traffic + TCC counters for one kernel launch."""

    fetch_bytes: float
    write_bytes: float
    tcc_requests: float
    tcc_hits: float
    tcc_misses: float
    #: diagnostic: streaming passes charged per array name
    passes_by_array: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return self.fetch_bytes + self.write_bytes

    @property
    def hit_rate(self) -> float:
        if self.tcc_requests == 0:
            return 0.0
        return self.tcc_hits / self.tcc_requests


def effective_fetch_cells(shape: tuple[int, int, int]) -> int:
    """Cells a radius-1 7-point stencil must fetch at least once.

    Generalizes the paper's Eq. (4a) — ``L^3 - 8 - 12(L-2)`` for a cube
    — to a box: all cells except the 8 corners and the interiors of the
    12 edges, which no interior cell's stencil ever touches.
    """
    n0, n1, n2 = shape
    if min(shape) < 2:
        return int(np.prod(shape))
    edges = 4 * ((n0 - 2) + (n1 - 2) + (n2 - 2))
    return n0 * n1 * n2 - 8 - edges


def effective_write_cells(shape: tuple[int, int, int]) -> int:
    """Paper Eq. (4b): interior cells only, ``(L-2)^3`` for a cube."""
    return int(np.prod([max(0, n - 2) for n in shape]))


_SEVEN_POINT = {
    (0, 0, 0),
    (-1, 0, 0), (1, 0, 0),
    (0, -1, 0), (0, 1, 0),
    (0, 0, -1), (0, 0, 1),
}


class StencilTrafficModel:
    """Analytic working-set traffic model for one GCD.

    Arrays are Fortran-ordered (axis 0 contiguous), matching Julia.
    """

    def __init__(self, spec: GcdSpec | None = None):
        self.spec = spec or GcdSpec()

    def passes_for(
        self, shape: tuple[int, int, int], itemsize: int, offsets: set[tuple[int, ...]]
    ) -> int:
        """Streaming passes one array costs under LRU capacity limits.

        Hierarchical working-set test (axis 0 contiguous):
        - if the full z working set (distinct z-extent of the stencil,
          in planes) fits in the TCC, every line is fetched once;
        - else each distinct z-offset group streams separately, provided
          the y working set (rows) fits;
        - else every distinct (y, z) offset pair streams separately.
        """
        if not offsets:
            return 0
        n0, n1, _ = shape
        z_offsets = {o[2] for o in offsets}
        y_offsets = {o[1] for o in offsets}
        z_extent = max(z_offsets) - min(z_offsets) + 1
        y_extent = max(y_offsets) - min(y_offsets) + 1

        plane_bytes = n0 * n1 * itemsize
        row_bytes = n0 * itemsize
        cache = self.spec.tcc_bytes

        if z_extent * plane_bytes <= cache:
            return 1
        if y_extent * row_bytes <= cache:
            return len(z_offsets)
        return len(z_offsets) * len(y_offsets)

    def estimate(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        loads_by_array: dict[str, set[tuple[int, ...]]],
        stores_by_array: dict[str, set[tuple[int, ...]]],
    ) -> TrafficEstimate:
        """Traffic for one launch over arrays of a common ``shape``."""
        if len(shape) != 3:
            raise GpuError(f"traffic model expects 3D arrays, got shape {shape}")
        cells = int(np.prod(shape))
        array_bytes = cells * itemsize
        lines = math.ceil(array_bytes / self.spec.cache_line_bytes)

        fetch = 0.0
        requests = 0.0
        misses = 0.0
        passes_by_array: dict[str, int] = {}

        for name, offsets in loads_by_array.items():
            passes = self.passes_for(shape, itemsize, offsets)
            passes_by_array[name] = passes
            fetch += passes * array_bytes
            # The TCC sees one request per distinct offset per line (L1
            # absorbs within-line reuse); `passes` of them miss.
            requests += len(offsets) * lines
            misses += passes * lines

        write = 0.0
        for name, offsets in stores_by_array.items():
            write += len(offsets) * array_bytes
            requests += len(offsets) * lines
            misses += len(offsets) * lines  # streaming stores: no reuse

        return TrafficEstimate(
            fetch_bytes=fetch,
            write_bytes=write,
            tcc_requests=requests,
            tcc_hits=requests - misses,
            tcc_misses=misses,
            passes_by_array=passes_by_array,
        )

    def estimate_func(
        self,
        func,
        shape: tuple[int, int, int],
        itemsize: int | None = None,
    ) -> TrafficEstimate:
        """Traffic for one launch of a (possibly rewritten) stencil func.

        Accepts a :class:`repro.ir.core.StencilFunc` — including
        post-rewrite IR, which is the whole point: fusion/RLE shrink
        ``loads_by_array`` and the estimate answers the counterfactual.
        A tiled func (``func.tile`` set by the tiling pass) is modeled
        with tile-local working sets plus per-tile halo refetch.
        """
        itemsize = itemsize if itemsize is not None else func.itemsize
        loads = func.loads_by_array()
        stores = func.stores_by_array()
        if func.tile is None:
            return self.estimate(shape, itemsize, loads, stores)
        return self._estimate_tiled(
            shape, itemsize, loads, stores, tuple(func.tile)
        )

    def _estimate_tiled(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        loads_by_array: dict[str, set[tuple[int, ...]]],
        stores_by_array: dict[str, set[tuple[int, ...]]],
        tile: tuple[int, ...],
    ) -> TrafficEstimate:
        """Tile-local working sets: passes shrink, halo refetch grows.

        The working-set test runs over tile-plane bytes instead of
        array-plane bytes (a tile small enough to hold its z working
        set streams each array once), but every tile re-fetches its
        per-axis stencil halo, a multiplicative ``(t + ext) / t``
        factor per axis.
        """
        if len(shape) != 3:
            raise GpuError(f"traffic model expects 3D arrays, got shape {shape}")
        t = tuple(min(int(ti), int(ni)) for ti, ni in zip(tile, shape))
        cells = int(np.prod(shape))
        array_bytes = cells * itemsize
        lines = math.ceil(array_bytes / self.spec.cache_line_bytes)

        fetch = 0.0
        requests = 0.0
        misses = 0.0
        passes_by_array: dict[str, int] = {}

        for name, offsets in loads_by_array.items():
            tile_shape = (t[0], t[1], shape[2])
            passes = self.passes_for(tile_shape, itemsize, offsets)
            passes_by_array[name] = passes
            refetch = 1.0
            for axis in range(3):
                ext = (
                    max(o[axis] for o in offsets)
                    - min(o[axis] for o in offsets)
                )
                refetch *= (t[axis] + ext) / t[axis]
            fetch += passes * array_bytes * refetch
            requests += len(offsets) * lines
            misses += min(len(offsets) * lines, passes * lines * refetch)

        write = 0.0
        for name, offsets in stores_by_array.items():
            write += len(offsets) * array_bytes
            requests += len(offsets) * lines
            misses += len(offsets) * lines  # streaming stores: no reuse

        return TrafficEstimate(
            fetch_bytes=fetch,
            write_bytes=write,
            tcc_requests=requests,
            tcc_hits=max(0.0, requests - misses),
            tcc_misses=misses,
            passes_by_array=passes_by_array,
        )


#: plan entry for one access stream: (base_address, di, dj, dk, is_load)
_PlanEntry = tuple[int, int, int, int, bool]


class _VectorLruState:
    """Dense ``(num_sets, associativity)`` mirror of the per-set LRU state.

    ``tags[s, w]`` is the line cached in way ``w`` of set ``s`` (or -1),
    ``age[s, w]`` the round of its last use. Exact LRU: a hit refreshes
    the way's age; a miss replaces the minimum-age way. Empty ways carry
    an age below any imported or live age, so ``argmin`` fills them
    left-to-right first — the same fill/evict order as the per-set
    ``OrderedDict`` in :meth:`TraceCacheSim.access`.
    """

    def __init__(self, sim: "TraceCacheSim"):
        S, A = sim.num_sets, sim.associativity
        self._empty_age = -(A + 1)
        self.tags = np.full((S, A), -1, dtype=np.int64)
        self.age = np.full((S, A), self._empty_age, dtype=np.int64)
        self.round = 0
        # misses == 0 means no line was ever inserted: every set is
        # empty and the import is a no-op (the fresh-simulator fast path)
        if sim.misses == 0:
            return
        lens = np.fromiter(
            (len(resident) for resident in sim._sets), dtype=np.int64, count=S
        )
        total = int(lens.sum())
        if total == 0:
            return
        # flatten every set's LRU->MRU order once, then scatter: way w
        # of set s gets imported age w - len(set), strictly < round 0
        flat = np.fromiter(
            (line for resident in sim._sets for line in resident),
            dtype=np.int64,
            count=total,
        )
        rows = np.repeat(np.arange(S, dtype=np.int64), lens)
        starts = np.concatenate(([0], np.cumsum(lens[:-1])))
        cols = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        self.tags[rows, cols] = flat
        self.age[rows, cols] = cols - lens[rows]

    def materialize(self, sim: "TraceCacheSim") -> None:
        """Write the dense state back as LRU-ordered ``OrderedDict``s."""
        A = self.tags.shape[1]
        order = np.argsort(self.age, axis=1, kind="stable")
        sorted_tags = np.take_along_axis(self.tags, order, axis=1)
        sorted_age = np.take_along_axis(self.age, order, axis=1)
        # empty ways carry the minimum age, so they sort first and the
        # resident lines are each row's last ``n`` entries, LRU -> MRU
        counts = (sorted_age != self._empty_age).sum(axis=1)
        sets = sim._sets
        for s, n in enumerate(counts):
            if n:
                row = sorted_tags[s, A - n:]
                sets[s] = OrderedDict((int(line), True) for line in row)
            else:
                sets[s] = OrderedDict()


class _VectorSweepUnsupported(Exception):
    """Geometry/configuration outside the vector engine's envelope."""


class TraceCacheSim:
    """Exact set-associative LRU cache over a stencil access stream.

    Replays the access stream of a radius-r stencil sweep over a
    Fortran-ordered array: for each interior cell in storage order, one
    access per load offset, then one per store. Counts line fills
    (misses) and hits; ``fetch_bytes`` is misses x line size for load
    accesses.

    Sweeps run as a NumPy plane-batched replay (address streams
    generated per z-plane, grouped per cache set, simulated as lockstep
    LRU rounds over a dense tag matrix). It is exact: per-set access
    order is preserved, and the only accesses it elides are provably
    hits whose LRU refresh is a no-op. Geometries outside its envelope
    (a negative base address, or more plane entries than its 31-bit
    sequence packing holds) fall back to the per-access loop. Both
    share the same cache state, so sweeps and :meth:`access` calls can
    be freely interleaved.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 64,
        associativity: int = 16,
    ):
        if capacity_bytes < line_bytes * associativity:
            raise GpuError("cache smaller than a single set")
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = capacity_bytes // (line_bytes * associativity)
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self._geom: tuple[int, int, int, int, int, int] | None = None
        #: dense LRU state retained between consecutive vector sweeps so
        #: the per-set import/export loops are skipped entirely; the
        #: scalar paths materialize it back into ``_sets`` on demand
        self._dense: _VectorLruState | None = None
        self.hits = 0
        self.misses = 0
        self.load_misses = 0

    def _materialize(self) -> None:
        """Flush retained dense LRU state back into the per-set dicts."""
        state, self._dense = self._dense, None
        if state is not None:
            state.materialize(self)

    def access(self, line: int, *, is_load: bool = True) -> bool:
        """Probe one cache line; returns True on hit."""
        if self._dense is not None:
            self._materialize()
        target = self._sets[line % self.num_sets]
        if line in target:
            target.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if is_load:
            self.load_misses += 1
        target[line] = True
        if len(target) > self.associativity:
            target.popitem(last=False)
        return False

    @property
    def fetch_bytes(self) -> int:
        return self.load_misses * self.line_bytes

    @staticmethod
    def _validate_radius(shape: tuple[int, int, int], radius: int) -> None:
        """Reject sweeps whose halo swallows the whole array.

        ``radius >= ceil(min(shape) / 2)`` leaves no interior cell: the
        triple loop would silently run zero iterations and report a
        zero-traffic estimate that looks like a perfectly cached sweep.
        """
        if radius and 2 * radius >= min(shape):
            raise GpuError(
                f"stencil radius {radius} exceeds half the smallest array "
                f"dimension (shape {shape}): the sweep has no interior cells"
            )

    def sweep(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        load_offsets: set[tuple[int, int, int]],
        *,
        base_address: int = 0,
        store: bool = True,
        store_base_address: int | None = None,
    ) -> None:
        """Replay one stencil sweep over an array of ``shape``.

        ``base_address`` lets multiple arrays coexist in the same cache
        (pass distinct, page-aligned bases). The sweep walks interior
        cells in Fortran storage order — i fastest — which is also the
        order wavefronts retire in the real kernel's x-fastest launch.
        """
        n0, n1, n2 = shape
        stride0 = itemsize
        stride1 = n0 * itemsize
        stride2 = n0 * n1 * itemsize
        offsets = sorted(load_offsets)
        radius = max(abs(c) for o in offsets for c in o) if offsets else 0
        self._validate_radius(shape, radius)
        store_base = store_base_address if store_base_address is not None else (
            base_address + 2 * stride2 * n2
        )
        plan: list[_PlanEntry] = [
            (base_address, di, dj, dk, True) for di, dj, dk in offsets
        ]
        if store:
            plan.append((store_base, 0, 0, 0, False))
        self._dispatch_sweep(shape, itemsize, plan, radius)

    def multi_sweep(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        loads_by_array: dict[str, set[tuple[int, ...]]],
        stores_by_array: dict[str, set[tuple[int, ...]]],
    ) -> TrafficEstimate:
        """Exact counters for one interleaved multi-array stencil sweep.

        Emulates the real kernel's access order: per interior cell, all
        arrays' loads then all stores, arrays living at page-separated
        base addresses in the same cache. Returns a
        :class:`TrafficEstimate` directly comparable with
        :meth:`StencilTrafficModel.estimate`.
        """
        n0, n1, n2 = shape
        array_bytes = n0 * n1 * n2 * itemsize
        # page-align each array's base well apart
        span = -(-array_bytes // 4096) * 4096 + 4096
        bases: dict[str, int] = {}
        for name in list(loads_by_array) + [
            s for s in stores_by_array if s not in loads_by_array
        ]:
            bases[name] = len(bases) * span

        plan: list[_PlanEntry] = []
        for name, offsets in loads_by_array.items():
            for di, dj, dk in sorted(offsets):
                plan.append((bases[name], di, dj, dk, True))
        n_load_accesses = len(plan)
        for name, offsets in stores_by_array.items():
            for di, dj, dk in sorted(offsets):
                plan.append((bases[name], di, dj, dk, False))
        radius = max(
            (abs(d) for _, di, dj, dk, _ in plan for d in (di, dj, dk)),
            default=0,
        )
        self._validate_radius(shape, radius)
        ncells = max(0, n0 - 2 * radius) * max(0, n1 - 2 * radius) * max(
            0, n2 - 2 * radius
        )
        requests = ncells * len(plan)
        write_accesses = ncells * (len(plan) - n_load_accesses)
        fetch_misses_before = self.load_misses
        self._dispatch_sweep(shape, itemsize, plan, radius)
        fetch = (self.load_misses - fetch_misses_before) * self.line_bytes
        return TrafficEstimate(
            fetch_bytes=float(fetch),
            write_bytes=float(write_accesses * itemsize),
            tcc_requests=float(requests),
            tcc_hits=float(self.hits),
            tcc_misses=float(self.misses),
            passes_by_array={},
        )

    def multi_sweep_func(
        self,
        func,
        shape: tuple[int, int, int],
        itemsize: int | None = None,
    ) -> TrafficEstimate:
        """Exact counters for one launch of a (post-rewrite) stencil func.

        Accepts a :class:`repro.ir.core.StencilFunc`; the access stream
        is derived from the func's (possibly rewritten) load/store
        offset sets, so simulating the same func before and after a
        pass pipeline measures exactly what the rewrite changed. A
        tiled func replays a tile-blocked traversal (per-access loop).
        """
        itemsize = itemsize if itemsize is not None else func.itemsize
        loads = func.loads_by_array()
        stores = func.stores_by_array()
        if func.tile is None:
            return self.multi_sweep(shape, itemsize, loads, stores)
        return self._multi_sweep_tiled(
            shape, itemsize, loads, stores, tuple(func.tile)
        )

    def _multi_sweep_tiled(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        loads_by_array: dict[str, set[tuple[int, ...]]],
        stores_by_array: dict[str, set[tuple[int, ...]]],
        tile: tuple[int, ...],
    ) -> TrafficEstimate:
        """Tile-blocked exact replay: tiles in Fortran order, cells within.

        Same plan construction as :meth:`multi_sweep`; only the cell
        visit order changes — which is precisely what tiling does, and
        what the LRU state observes.
        """
        n0, n1, n2 = shape
        array_bytes = n0 * n1 * n2 * itemsize
        span = -(-array_bytes // 4096) * 4096 + 4096
        bases: dict[str, int] = {}
        for name in list(loads_by_array) + [
            s for s in stores_by_array if s not in loads_by_array
        ]:
            bases[name] = len(bases) * span

        plan: list[_PlanEntry] = []
        for name, offsets in loads_by_array.items():
            for di, dj, dk in sorted(offsets):
                plan.append((bases[name], di, dj, dk, True))
        n_load_accesses = len(plan)
        for name, offsets in stores_by_array.items():
            for di, dj, dk in sorted(offsets):
                plan.append((bases[name], di, dj, dk, False))
        radius = max(
            (abs(d) for _, di, dj, dk, _ in plan for d in (di, dj, dk)),
            default=0,
        )
        self._validate_radius(shape, radius)
        if self._dense is not None:
            self._materialize()
        stride = (itemsize, n0 * itemsize, n0 * n1 * itemsize)
        lo, hi = radius, tuple(n - radius for n in shape)
        t = tuple(max(1, int(x)) for x in tile)
        ncells = 0
        fetch_misses_before = self.load_misses
        hits_before, misses_before = self.hits, self.misses
        for tk in range(lo, hi[2], t[2]):
            for tj in range(lo, hi[1], t[1]):
                for ti in range(lo, hi[0], t[0]):
                    for k in range(tk, min(tk + t[2], hi[2])):
                        for j in range(tj, min(tj + t[1], hi[1])):
                            for i in range(ti, min(ti + t[0], hi[0])):
                                ncells += 1
                                cell = (
                                    i * stride[0] + j * stride[1]
                                    + k * stride[2]
                                )
                                for base, di, dj, dk, is_load in plan:
                                    addr = (
                                        base + cell + di * stride[0]
                                        + dj * stride[1] + dk * stride[2]
                                    )
                                    self.access(
                                        addr // self.line_bytes,
                                        is_load=is_load,
                                    )
        fetch = (self.load_misses - fetch_misses_before) * self.line_bytes
        write_accesses = ncells * (len(plan) - n_load_accesses)
        return TrafficEstimate(
            fetch_bytes=float(fetch),
            write_bytes=float(write_accesses * itemsize),
            tcc_requests=float(ncells * len(plan)),
            tcc_hits=float(self.hits - hits_before),
            tcc_misses=float(self.misses - misses_before),
            passes_by_array={},
        )

    # ------------------------------------------------------------------
    # replay

    def _dispatch_sweep(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        plan: list[_PlanEntry],
        radius: int,
    ) -> None:
        try:
            self._sweep_vector(shape, itemsize, plan, radius)
        except _VectorSweepUnsupported:
            self._sweep_scalar(shape, itemsize, plan, radius)

    def _sweep_scalar(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        plan: list[_PlanEntry],
        radius: int,
    ) -> None:
        """The per-access triple loop behind :meth:`_sweep_vector`."""
        if self._dense is not None:
            self._materialize()
        n0, n1, n2 = shape
        stride0 = itemsize
        stride1 = n0 * itemsize
        stride2 = n0 * n1 * itemsize
        lo = radius
        for k in range(lo, n2 - lo):
            for j in range(lo, n1 - lo):
                for i in range(lo, n0 - lo):
                    cell = i * stride0 + j * stride1 + k * stride2
                    for base, di, dj, dk, is_load in plan:
                        addr = (
                            base + cell
                            + di * stride0 + dj * stride1 + dk * stride2
                        )
                        self.access(addr // self.line_bytes, is_load=is_load)

    def _sweep_vector(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        plan: list[_PlanEntry],
        radius: int,
    ) -> None:
        """Plane-batched exact replay; counters identical to the scalar loop.

        Per z-plane: (1) generate each plan entry's line stream — in the
        common ``itemsize < line_bytes`` regime only the first access of
        each run of same-line accesses is materialized, the rest are
        provably hits (guarded by :func:`_run_skip_is_exact`); (2) sort
        accesses by ``(cache set, stream position)`` so each set's
        sub-stream keeps its temporal order; (3) merge consecutive
        same-line accesses within a set (always-exact guaranteed hits);
        (4) replay round ``r`` = every set's ``r``-th access in lockstep
        against the dense LRU tag/age matrix.
        """
        n0, n1, n2 = shape
        s0 = itemsize
        s1 = n0 * itemsize
        s2 = n0 * n1 * itemsize
        LB = self.line_bytes
        S = self.num_sets
        lo = radius
        ni, nj, nk = n0 - 2 * lo, n1 - 2 * lo, n2 - 2 * lo
        E = len(plan)
        if E == 0 or ni <= 0 or nj <= 0 or nk <= 0:
            return
        if S >= 1 << 30 or E * nj * ni >= 1 << 31:
            raise _VectorSweepUnsupported
        base_e = np.array(
            [
                b + (lo + di) * s0 + (lo + dj) * s1 + (lo + dk) * s2
                for b, di, dj, dk, _ in plan
            ],
            dtype=np.int64,
        )
        if int(base_e.min()) < 0:
            raise _VectorSweepUnsupported
        is_load_e = np.array([is_load for *_, is_load in plan], dtype=bool)
        compress = s0 < LB and _run_skip_is_exact(base_e, s0, LB, S)

        # seq bit layout (low 32 bits of the pack): plane | row | cell
        # | entry, each field padded to a power of two so the replay
        # recovers coordinates with shifts and masks instead of int64
        # division chains
        be = max(1, (E - 1).bit_length())
        bt = max(1, (ni - 1).bit_length())
        bu = max(1, (nj - 1).bit_length())
        if be + bt + bu > 30:
            raise _VectorSweepUnsupported
        planes_per_chunk = 1 << (31 - be - bt - bu)
        self._geom = (s0, s1, s2, be, bt, bu)

        state = self._dense if self._dense is not None else _VectorLruState(self)
        self._dense = None
        row_u = np.arange(nj, dtype=np.int64)
        u_col = (row_u << (bt + be))[:, None]
        t_full = np.arange(ni, dtype=np.int64)
        set_mask_ok = S & (S - 1) == 0
        lb_shift = LB.bit_length() - 1 if LB & (LB - 1) == 0 else None
        extra_hits = 0

        # Accumulate per-plane compressed access streams into chunks of
        # bounded size, then replay each chunk grouped by set. Grouping
        # over many planes at once keeps the lockstep rounds close to
        # num_sets wide (per-plane set skew averages out), which is
        # where the dense LRU update is efficient. Splitting into
        # chunks never changes counters: per-set order is preserved
        # regardless of where the stream is cut.
        chunk_target = 1_000_000
        pending: list[np.ndarray] = []
        pending_n = 0
        k_base = 0  # chunk-relative plane numbering keeps seq in 31 bits

        def flush(k_next: int) -> None:
            nonlocal pending, pending_n, k_base
            if pending:
                self._replay_grouped_chunk(
                    np.concatenate(pending), base_e, is_load_e, k_base, state
                )
            pending = []
            pending_n = 0
            k_base = k_next

        for k in range(nk):
            if k - k_base >= planes_per_chunk:
                flush(k)
            for e in range(E):
                c0 = base_e[e] + k * s2 + row_u * s1  # (nj,) row base bytes
                if compress:
                    l0 = c0 // LB
                    n_bounds = (c0 + (ni - 1) * s0) // LB - l0  # per row
                    m = np.arange(int(n_bounds.max()) + 1, dtype=np.int64)
                    lines = l0[:, None] + m[None, :]
                    # cell index of the m-th line's first touch (ceil div)
                    t = -((c0[:, None] - lines * LB) // s0)
                    t[:, 0] = 0
                    valid = m[None, :] <= n_bounds[:, None]
                    extra_hits += nj * ni - int(valid.sum())
                else:
                    if lb_shift is not None:
                        lines = (c0[:, None] + t_full[None, :] * s0) >> lb_shift
                    else:
                        lines = (c0[:, None] + t_full[None, :] * s0) // LB
                    t = t_full[None, :]
                    valid = None
                sets = lines & (S - 1) if set_mask_ok else lines % S
                seq = (
                    ((k - k_base) << (bu + bt + be)) | u_col | (t << be) | e
                )
                pack = (sets << 32) | seq
                pending.append(pack[valid] if valid is not None else pack.ravel())
                pending_n += pending[-1].size
            if pending_n >= chunk_target:
                flush(k + 1)
        flush(nk)
        # retain the dense state: a consecutive vector sweep resumes it
        # directly, and scalar paths materialize it lazily on first use
        self._dense = state
        self.hits += extra_hits
        self._geom = None

    def _replay_grouped_chunk(
        self,
        pk: np.ndarray,
        base_e: np.ndarray,
        is_load_e: np.ndarray,
        k_base: int,
        state: _VectorLruState,
    ) -> None:
        """Sort one chunk's packed accesses by (set, position) and replay.

        Round ``r`` applies every set's ``r``-th access in lockstep to
        the dense tag/age matrices; only miss rows need an LRU-victim
        ``argmin``. Counter updates land directly on ``self``.
        """
        if pk.size == 0:
            return
        s0, s1, s2, be, bt, bu = self._geom
        LB = self.line_bytes
        S = self.num_sets
        pk.sort(kind="quicksort")  # by (set, stream position)
        set_g = pk >> 32
        eidx = pk & ((1 << be) - 1)
        tg = (pk >> be) & ((1 << bt) - 1)
        ug = (pk >> (be + bt)) & ((1 << bu) - 1)
        kk = (pk & 0xFFFFFFFF) >> (be + bt + bu)
        addr = np.take(base_e + k_base * s2, eidx)
        addr += kk * s2
        addr += ug * s1
        addr += tg * s0
        if LB & (LB - 1) == 0:
            lines_g = addr >> (LB.bit_length() - 1)
        else:
            lines_g = addr // LB
        isload_g = np.take(is_load_e, eidx)
        dup = np.empty(lines_g.shape, dtype=bool)
        dup[0] = False
        np.logical_and(
            set_g[1:] == set_g[:-1], lines_g[1:] == lines_g[:-1], out=dup[1:]
        )
        ndup = int(dup.sum())
        if ndup:
            keep = ~dup
            set_g = set_g[keep]
            lines_g = lines_g[keep]
            isload_g = isload_g[keep]
            self.hits += ndup
        counts = np.bincount(set_g, minlength=S)
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        # sets ordered by stream length, longest first: round r is one
        # lockstep access for each of the first m_r of them
        order = np.argsort(counts, kind="stable")[::-1]
        neg_desc = -counts[order]  # ascending; #(counts > r) by bisect
        starts_desc = starts[order]
        tags, age = state.tags, state.age
        A = tags.shape[1]
        sub = np.empty((S, A), dtype=np.int64)
        matched = np.empty((S, A), dtype=bool)
        flat_base = np.arange(S, dtype=np.int64) * A
        hits = misses = load_misses = 0
        for r in range(int(counts.max())):
            m_r = int(np.searchsorted(neg_desc, -r, side="left"))
            rows = order[:m_r]
            pos = starts_desc[:m_r] + r
            lr = lines_g[pos]
            np.take(tags, rows, axis=0, out=sub[:m_r])
            np.equal(sub[:m_r], lr[:, None], out=matched[:m_r])
            way = matched[:m_r].argmax(axis=1)
            hit = matched.reshape(-1)[flat_base[:m_r] + way]
            nh = int(hit.sum())
            hits += nh
            age[rows[hit], way[hit]] = state.round
            if m_r - nh:
                miss = ~hit
                mrows = rows[miss]
                victim = age[mrows].argmin(axis=1)
                tags[mrows, victim] = lr[miss]
                age[mrows, victim] = state.round
                misses += m_r - nh
                load_misses += int(isload_g[pos[miss]].sum())
            state.round += 1
        self.hits += hits
        self.misses += misses
        self.load_misses += load_misses


def _run_skip_is_exact(
    base_e: np.ndarray, s0: int, line_bytes: int, num_sets: int
) -> bool:
    """Whether run-length skipping of same-line accesses is provably exact.

    A skipped access (same line as the same entry's access one cell
    earlier) is a guaranteed hit whose MRU refresh is a no-op **unless**
    some access interleaved between the two maps to the same set but a
    different line — then the skip would lose a recency update. The
    interleaved accesses sit at most one cell away, so their byte
    distance to the skipped access is ``base_e[b] - base_e[a] + w*s0``
    for ``w`` in {-1, 0, 1}; a distance ``d`` can only produce line
    deltas ``d // line_bytes`` or ``d // line_bytes + 1``. The skip is
    exact when no such delta is a nonzero multiple of ``num_sets``.
    """
    for a in range(len(base_e)):
        for b in range(len(base_e)):
            if a == b:
                continue
            for w in (-1, 0, 1):
                d = int(base_e[b] - base_e[a]) + w * s0
                for delta in (d // line_bytes, d // line_bytes + 1):
                    if delta != 0 and delta % num_sets == 0:
                        return False
    return True


def seven_point_offsets() -> set[tuple[int, int, int]]:
    """The paper's 7-point Laplacian stencil offsets (Eq. 3)."""
    return set(_SEVEN_POINT)
