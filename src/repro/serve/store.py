"""ResultStore: the service's canonical-hash result cache.

Identical configurations hash identically
(:meth:`repro.core.execute.JobSpec.canonical_key`), so the store can
answer a repeated request without recomputing — and because the entry
carries the *rendered report text of the cold run*, a cache hit is
byte-identical to the original answer, not merely equivalent.

The store is a bounded LRU: `capacity` entries, least-recently-used
eviction, with hit/miss/eviction counters for the service stats and
the load benchmark. It is synchronous and thread-safe (one lock around
the OrderedDict); the asyncio service calls it from the event loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.util.errors import ServeError


@dataclass
class CacheEntry:
    """One cached run: the result object plus the cold run's bytes."""

    key: str
    result: object
    #: the report text rendered exactly once, when the entry was stored
    rendered: str
    #: insertion sequence number (monotonic per store)
    seq: int = 0
    #: extra presentation payloads, e.g. provenance JSON
    extras: dict = field(default_factory=dict)


class ResultStore:
    """Bounded LRU cache of :class:`CacheEntry`, keyed on canonical hash."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ServeError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._seq = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> CacheEntry | None:
        """The entry for ``key`` (refreshing recency), or None (a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def peek(self, key: str) -> CacheEntry | None:
        """The entry without touching recency or counters."""
        with self._lock:
            return self._entries.get(key)

    def put(
        self,
        key: str,
        result: object,
        rendered: str,
        *,
        extras: dict | None = None,
    ) -> CacheEntry:
        """Store a cold run's outcome; evicts the LRU entry at capacity.

        Re-putting an existing key replaces the entry (the new bytes
        win) without counting an eviction.
        """
        with self._lock:
            self._seq += 1
            entry = CacheEntry(
                key=key,
                result=result,
                rendered=rendered,
                seq=self._seq,
                extras=dict(extras or {}),
            )
            replaced = key in self._entries
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if not replaced and len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
