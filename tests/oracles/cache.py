"""Cache-simulator oracle: an independent per-access LRU replay.

:class:`ReferenceCache` keeps one ``OrderedDict`` per cache set (LRU
first, MRU last) and walks a stencil launch cell by cell, in Fortran or
tile-blocked order, issuing every plan entry's access in turn. It
shares no code with :class:`repro.gpu.cache.TraceCacheSim`, whose
vector replay must land on exactly these counters.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.gpu.cache import TrafficEstimate


class ReferenceCache:
    """Set-associative LRU cache probed one line at a time."""

    def __init__(
        self, capacity_bytes: int, line_bytes: int = 64, associativity: int = 16
    ):
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = capacity_bytes // (line_bytes * associativity)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.load_misses = 0

    def access(self, line: int, is_load: bool = True) -> bool:
        """Probe one cache line; returns True on hit."""
        resident = self.sets[line % self.num_sets]
        if line in resident:
            resident.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if is_load:
            self.load_misses += 1
        resident[line] = True
        if len(resident) > self.associativity:
            resident.popitem(last=False)
        return False

    def multi_sweep(
        self,
        shape: tuple[int, int, int],
        itemsize: int,
        loads_by_array: dict[str, set[tuple[int, ...]]],
        stores_by_array: dict[str, set[tuple[int, ...]]],
        tile: tuple[int, ...] | None = None,
    ) -> TrafficEstimate:
        """Replay one launch: per cell, every array's loads then stores.

        Arrays sit one page past each other's end, in first-seen order
        (loads, then stores); each array's offsets go in sorted order.
        """
        n0, n1, n2 = shape
        array_bytes = n0 * n1 * n2 * itemsize
        span = ((array_bytes + 4095) // 4096 + 1) * 4096
        names = list(loads_by_array)
        names += [name for name in stores_by_array if name not in names]
        base = {name: index * span for index, name in enumerate(names)}
        plan = [
            (base[name], offset, True)
            for name, offsets in loads_by_array.items()
            for offset in sorted(offsets)
        ] + [
            (base[name], offset, False)
            for name, offsets in stores_by_array.items()
            for offset in sorted(offsets)
        ]
        radius = max((abs(d) for _, offset, _ in plan for d in offset), default=0)
        hits, misses, load_misses = self.hits, self.misses, self.load_misses
        ncells = 0
        for i, j, k in _cells(shape, radius, tile):
            ncells += 1
            for array_base, (di, dj, dk), is_load in plan:
                cell = (i + di) + n0 * ((j + dj) + n1 * (k + dk))
                self.access((array_base + cell * itemsize) // self.line_bytes,
                            is_load)
        nstores = sum(1 for *_, is_load in plan if not is_load)
        return TrafficEstimate(
            fetch_bytes=float((self.load_misses - load_misses) * self.line_bytes),
            write_bytes=float(ncells * nstores * itemsize),
            tcc_requests=float(ncells * len(plan)),
            tcc_hits=float(self.hits - hits),
            tcc_misses=float(self.misses - misses),
            passes_by_array={},
        )


def _cells(shape, radius, tile):
    """Interior cells ``(i, j, k)`` in visit order.

    Untiled: Fortran order, i fastest. Tiled: tiles in Fortran order,
    and Fortran order inside each tile, clipped to the interior.
    """
    lo = radius
    hi = [n - radius for n in shape]
    if tile is None:
        for k in range(lo, hi[2]):
            for j in range(lo, hi[1]):
                for i in range(lo, hi[0]):
                    yield i, j, k
        return
    t = [max(1, int(x)) for x in tile]
    for tk in range(lo, hi[2], t[2]):
        for tj in range(lo, hi[1], t[1]):
            for ti in range(lo, hi[0], t[0]):
                for k in range(tk, min(tk + t[2], hi[2])):
                    for j in range(tj, min(tj + t[1], hi[1])):
                        for i in range(ti, min(ti + t[0], hi[0])):
                            yield i, j, k
