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
  the real access stream, untiled or tile-blocked. Too slow for 1024^3
  but exact at test sizes: ``grayscott ir optimize --exact`` costs IR
  with it, and ``tests/gpu/test_cache.py`` uses it to validate the
  analytic model on both sides of the fits-in-cache boundary.
"""

from __future__ import annotations

import math
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


#: accesses per replayed chunk: enough that the lockstep rounds run
#: close to ``num_sets`` wide, few enough to bound the chunk's memory
_CHUNK_ACCESSES = 1_000_000


class TraceCacheSim:
    """Exact set-associative LRU cache over a stencil access stream.

    Replays one launch's access stream: for each interior cell, one
    access per load offset of every array, then one per store, arrays
    at page-separated base addresses in the same cache. Counts hits,
    misses and load misses (whose line fills are the FETCH bytes). The
    LRU state and the counters carry over from one sweep to the next,
    so a module's launches replay on one simulator.

    A traversal is an ordered list of row segments ``(j, k, i0,
    width)``, cells i-fastest within each (see :func:`_segments`). The
    replay generates every access's line with NumPy, groups accesses
    by cache set keeping each set's temporal order, and applies round
    ``r`` (every set's ``r``-th access) in lockstep to the dense
    ``tags``/``age`` matrices. It is exact: the only accesses it elides
    are provably hits whose LRU refresh is a no-op.
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
        if self.num_sets >= 1 << 30:
            raise GpuError(
                f"cache of {self.num_sets} sets: the replay packs set "
                "indices in 30 bits"
            )
        # tags[s, w] is the line in way w of set s (-1 if empty), age[s, w]
        # the round of its last use. A hit refreshes the way's age; a miss
        # replaces the minimum-age way. Empty ways age -1, below every
        # round, so they fill left to right before any line is evicted.
        self.tags = np.full((self.num_sets, associativity), -1, dtype=np.int64)
        self.age = np.full((self.num_sets, associativity), -1, dtype=np.int64)
        self.round = 0
        self.hits = 0
        self.misses = 0
        self.load_misses = 0

    def multi_sweep(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        loads_by_array: dict[str, set[tuple[int, ...]]],
        stores_by_array: dict[str, set[tuple[int, ...]]],
        tile: tuple[int, ...] | None = None,
    ) -> TrafficEstimate:
        """Exact counters for one interleaved multi-array stencil sweep.

        Emulates the real kernel's access order: per interior cell, all
        arrays' loads then all stores. Cells go in Fortran order, or
        tile-blocked when ``tile`` is given. Returns this sweep's
        :class:`TrafficEstimate`, directly comparable with
        :meth:`StencilTrafficModel.estimate`.
        """
        n0, n1, n2 = shape
        strides = (itemsize, n0 * itemsize, n0 * n1 * itemsize)
        # page-align each array's base well apart
        span = -(-n0 * n1 * n2 * itemsize // 4096) * 4096 + 4096
        bases: dict[str, int] = {}
        for name in [*loads_by_array, *stores_by_array]:
            bases.setdefault(name, len(bases) * span)
        plan = [
            (bases[name], offset, True)
            for name, offsets in loads_by_array.items()
            for offset in sorted(offsets)
        ]
        n_loads = len(plan)
        plan += [
            (bases[name], offset, False)
            for name, offsets in stores_by_array.items()
            for offset in sorted(offsets)
        ]
        radius = max((abs(d) for _, offset, _ in plan for d in offset), default=0)
        if radius and 2 * radius >= min(shape):
            # no interior cell: the sweep would replay nothing and report
            # a zero-traffic estimate that looks perfectly cached
            raise GpuError(
                f"stencil radius {radius} exceeds half the smallest array "
                f"dimension (shape {shape}): the sweep has no interior cells"
            )
        interior = tuple(n - 2 * radius for n in shape)
        ncells = math.prod(interior)
        before = (self.hits, self.misses, self.load_misses)
        if plan:
            # byte address of each entry's access at the first interior cell
            base_e = np.array(
                [
                    base + sum((radius + d) * s for d, s in zip(offset, strides))
                    for base, offset, _ in plan
                ],
                dtype=np.int64,
            )
            is_load_e = np.array([is_load for *_, is_load in plan], dtype=bool)
            seg_base, width = _segments(
                interior, interior if tile is None else tile, strides
            )
            self._replay(base_e, is_load_e, itemsize, seg_base, width)
        return TrafficEstimate(
            fetch_bytes=float((self.load_misses - before[2]) * self.line_bytes),
            write_bytes=float(ncells * (len(plan) - n_loads) * itemsize),
            tcc_requests=float(ncells * len(plan)),
            tcc_hits=float(self.hits - before[0]),
            tcc_misses=float(self.misses - before[1]),
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
        tiled func (``func.tile``) replays its tile-blocked traversal.
        """
        return self.multi_sweep(
            shape,
            itemsize if itemsize is not None else func.itemsize,
            func.loads_by_array(),
            func.stores_by_array(),
            func.tile,
        )

    # ------------------------------------------------------------------
    # replay

    def _replay(
        self,
        base_e: np.ndarray,
        is_load_e: np.ndarray,
        s0: int,
        seg_base: np.ndarray,
        width: np.ndarray,
    ) -> None:
        """Replay every plan entry over the segments, chunk by chunk.

        Per chunk: (1) generate each entry's line stream; in the common
        ``itemsize < line_bytes`` regime only the first access of each
        run of same-line accesses within a segment is materialized, the
        rest are provably hits (guarded by :func:`_run_skip_is_exact`);
        (2)-(4) :meth:`_replay_grouped_chunk`. Splitting into chunks
        never changes counters: per-set order is preserved wherever the
        stream is cut.
        """
        LB = self.line_bytes
        E = len(base_e)
        # seq bit layout (low 31 bits of each pack): segment | cell |
        # entry, each field padded to a power of two so the replay
        # recovers them with shifts and masks
        be = max(1, (E - 1).bit_length())
        bt = max(1, (int(width.max()) - 1).bit_length())
        if be + bt > 30:
            raise GpuError(
                f"a row of {int(width.max())} cells x {E} accesses per "
                "cell exceeds the replay's 31-bit access packing"
            )
        compress = s0 < LB and _run_skip_is_exact(base_e, s0, LB, self.num_sets)
        # accesses each segment materializes -> chunk boundaries
        if compress:
            per_segment = sum(
                (b + seg_base + (width - 1) * s0) // LB - (b + seg_base) // LB + 1
                for b in base_e
            )
        else:
            per_segment = E * width
        ends = np.cumsum(per_segment)
        max_segments = 1 << (31 - be - bt)
        g0 = 0
        while g0 < len(width):
            done = int(ends[g0 - 1]) if g0 else 0
            g1 = int(np.searchsorted(ends, done + _CHUNK_ACCESSES)) + 1
            g1 = min(g1, g0 + max_segments, len(width))
            chunk = slice(g0, g1)
            pk = _packed_stream(
                base_e, seg_base[chunk], width[chunk], s0, LB, self.num_sets,
                be, bt, compress,
            )
            self.hits += int(width[chunk].sum()) * E - pk.size
            self._replay_grouped_chunk(
                pk, base_e, is_load_e, seg_base[chunk], s0, be, bt
            )
            g0 = g1

    def _replay_grouped_chunk(
        self,
        pk: np.ndarray,
        base_e: np.ndarray,
        is_load_e: np.ndarray,
        seg_base: np.ndarray,
        s0: int,
        be: int,
        bt: int,
    ) -> None:
        """Sort one chunk's packed accesses by (set, position) and replay.

        (2) sort accesses by ``(cache set, stream position)`` so each
        set's sub-stream keeps its temporal order; (3) merge consecutive
        same-line accesses within a set (always-exact guaranteed hits);
        (4) round ``r`` applies every set's ``r``-th access in lockstep
        to the dense tag/age matrices; only miss rows need an
        LRU-victim ``argmin``. Counter updates land directly on ``self``.
        """
        if pk.size == 0:
            return
        LB = self.line_bytes
        S = self.num_sets
        pk.sort(kind="quicksort")  # by (set, stream position)
        set_g = pk >> 32
        eidx = pk & ((1 << be) - 1)
        tg = (pk >> be) & ((1 << bt) - 1)
        gg = (pk & 0xFFFFFFFF) >> (be + bt)
        addr = np.take(base_e, eidx)
        addr += np.take(seg_base, gg)
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
        tags, age = self.tags, self.age
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
            age[rows[hit], way[hit]] = self.round
            if m_r - nh:
                miss = ~hit
                mrows = rows[miss]
                victim = age[mrows].argmin(axis=1)
                tags[mrows, victim] = lr[miss]
                age[mrows, victim] = self.round
                misses += m_r - nh
                load_misses += int(isload_g[pos[miss]].sum())
            self.round += 1
        self.hits += hits
        self.misses += misses
        self.load_misses += load_misses


def _segments(
    interior: tuple[int, int, int],
    tile: tuple[int, ...],
    strides: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """The row segments of one traversal, in visit order.

    Tiles go in Fortran order; inside a tile, its rows (j fastest, then
    k), each clipped to the tile's i-range. ``tile == interior`` is
    plain Fortran order: one full-width row per ``(j, k)``. Returns
    each segment's byte offset from the first interior cell and its
    width in cells.
    """
    ni, nj, nk = interior
    ti, tj, tk = (min(max(1, int(t)), n) for t, n in zip(tile, interior))
    # axes: k-tile, j-tile, i-tile, k within the tile, j within the tile
    k = np.arange(0, nk, tk)[:, None, None, None, None] + np.arange(tk)[:, None]
    j = np.arange(0, nj, tj)[:, None, None, None] + np.arange(tj)
    i0 = np.arange(0, ni, ti)[:, None, None]
    k, j, i0 = (a.reshape(-1) for a in np.broadcast_arrays(k, j, i0))
    inside = (k < nk) & (j < nj)
    k, j, i0 = k[inside], j[inside], i0[inside]
    s0, s1, s2 = strides
    return i0 * s0 + j * s1 + k * s2, np.minimum(i0 + ti, ni) - i0


def _packed_stream(
    base_e: np.ndarray,
    seg_base: np.ndarray,
    width: np.ndarray,
    s0: int,
    line_bytes: int,
    num_sets: int,
    be: int,
    bt: int,
    compress: bool,
) -> np.ndarray:
    """One chunk's accesses, packed ``set << 32 | segment | cell | entry``.

    ``segment`` counts from the chunk's first segment. With
    ``compress``, each entry keeps only the first access of every run
    of same-line accesses within a segment.
    """
    LB = line_bytes
    seg_col = (np.arange(len(seg_base), dtype=np.int64) << (bt + be))[:, None]
    t_full = np.arange(int(width.max()), dtype=np.int64)
    ragged = int(width.min()) != len(t_full)
    set_mask_ok = num_sets & (num_sets - 1) == 0
    lb_shift = LB.bit_length() - 1 if LB & (LB - 1) == 0 else None
    packs = []
    for e, b in enumerate(base_e):
        c0 = b + seg_base  # (G,) first-cell byte address per segment
        if compress:
            l0 = c0 // LB
            n_bounds = (c0 + (width - 1) * s0) // LB - l0  # per segment
            m = np.arange(int(n_bounds.max()) + 1, dtype=np.int64)
            lines = l0[:, None] + m[None, :]
            # cell index of the m-th line's first touch (ceil div)
            t = -((c0[:, None] - lines * LB) // s0)
            t[:, 0] = 0
            valid = m[None, :] <= n_bounds[:, None]
        else:
            if lb_shift is not None:
                lines = (c0[:, None] + t_full[None, :] * s0) >> lb_shift
            else:
                lines = (c0[:, None] + t_full[None, :] * s0) // LB
            t = t_full[None, :]
            valid = t_full[None, :] < width[:, None] if ragged else None
        sets = lines & (num_sets - 1) if set_mask_ok else lines % num_sets
        pack = (sets << 32) | seg_col | (t << be) | e
        packs.append(pack[valid] if valid is not None else pack.ravel())
    return np.concatenate(packs)


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
