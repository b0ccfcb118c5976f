"""A persistent, content-addressed cache of JIT compilation plans.

The paper's Figure 7 headline is the 12.5x first-launch JIT penalty;
Julia's answer in the years since has been precompilation and
pkgimages — compile once, persist the result, start every later
process hot. This module reproduces that arc for the tracing JIT:
:class:`JitDiskCache` persists :class:`~repro.gpu.jit.KernelTrace`
plans on disk, keyed by the :meth:`~repro.gpu.jit.TraceMemo.signature`
memo key (kernel **source hash** + per-argument dtype/shape class +
launch config), so a fresh process — a spawned ``repro.par`` worker, a
restarted ``repro.serve`` service — answers its first launches from
persisted plans instead of re-tracing.

On-disk format (version :data:`ENTRY_SCHEMA`): one file per entry,
named by the sha256 of the canonical key JSON. Each file is a JSON
header line (schema id, kernel name, the canonical key — readable by
``grayscott jit-cache stats``), a newline, then the pickled trace.
Entries are written atomically (:func:`repro.util.files.
atomic_write_bytes`), so concurrent writers racing the same key both
leave a complete file and readers never observe a torn entry. Loads
are corruption-tolerant: any malformed entry (bad header, wrong
schema version, truncated or unpicklable payload) counts as a miss,
is deleted, and never propagates an exception into a launch.

The cache is LRU-capped by entry count: hits touch the file's mtime
and :meth:`JitDiskCache.store` evicts the stalest entries beyond
``max_entries``.

Process wiring: :func:`configure` attaches a cache to the process-wide
:class:`~repro.gpu.jit.TraceMemo`; :func:`warm_start` additionally
preloads every valid persisted plan straight into the in-memory memo,
so the warm process's first launch of a cached kernel is already a
memo hit — the tier ladder's pkgimage rung. ``repro.par`` workers and
the ``repro.serve`` worker pool call :func:`warm_start` on spawn with
the path the parent had configured.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

from repro.gpu.jit import KernelTrace, TraceMemo, trace_memo
from repro.observe import trace as observe
from repro.util.errors import GpuError
from repro.util.files import atomic_write_bytes

#: on-disk entry format version; bump to invalidate every persisted plan
ENTRY_SCHEMA = "repro.gpu.jitcache/1"

#: filename suffix of cache entries
ENTRY_SUFFIX = ".trace"

#: pickle protocol pinned for deterministic, cross-version payload bytes
PICKLE_PROTOCOL = 4


class JitCacheError(GpuError):
    """The persistent JIT cache cannot be used as requested."""


def canonical_key(key: tuple) -> str:
    """The canonical JSON spelling of a memo key (content address input).

    Raises TypeError for keys containing non-JSON-serializable values;
    :meth:`JitDiskCache.store` treats that as "not persistable".
    """
    return json.dumps(key, separators=(",", ":"), allow_nan=False)


def persistable_key(key: tuple) -> bool:
    """Whether a memo key is stable across processes.

    Kernels whose source cannot be hashed fall back to a
    ``("kernel_local", id(kernel), name)`` key; ``id`` values are
    meaningless (and collide) in other processes, so those keys never
    touch the disk tier.
    """
    return bool(key) and bool(key[0]) and key[0][0] == "kernel"


def freeze_key(value):
    """Rebuild the hashable tuple form of a JSON-decoded key."""
    if isinstance(value, list):
        return tuple(freeze_key(v) for v in value)
    return value


def serialize_trace(trace: KernelTrace) -> bytes:
    """The persisted byte form of a plan (the bit-identity unit)."""
    return pickle.dumps(trace, protocol=PICKLE_PROTOCOL)


class JitDiskCache:
    """Disk tier of the JIT: persisted plans under one directory."""

    def __init__(self, path: str | os.PathLike, *, max_entries: int = 512):
        if max_entries < 1:
            raise JitCacheError(
                f"jit cache needs max_entries >= 1, got {max_entries}"
            )
        self.path = Path(path)
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise JitCacheError(
                f"cannot create jit cache directory {self.path}: {exc}"
            ) from exc
        self.max_entries = int(max_entries)
        self._known: set[str] = set()  # key texts already persisted here
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.corrupt = 0
        self.evicted = 0
        self.unsupported = 0

    # -- addressing ----------------------------------------------------------
    def entry_path(self, key_text: str) -> Path:
        import hashlib

        digest = hashlib.sha256(key_text.encode("utf-8")).hexdigest()
        return self.path / (digest[:32] + ENTRY_SUFFIX)

    def _entry_files(self) -> list[Path]:
        return sorted(self.path.glob("*" + ENTRY_SUFFIX))

    # -- load side -----------------------------------------------------------
    def _load_entry(self, file: Path) -> tuple[dict, KernelTrace] | None:
        """(header, trace) of one entry, or None (counted + unlinked)."""
        try:
            blob = file.read_bytes()
            head, _, payload = blob.partition(b"\n")
            header = json.loads(head.decode("utf-8"))
            if header.get("schema") != ENTRY_SCHEMA:
                raise ValueError(
                    f"entry schema {header.get('schema')!r} != {ENTRY_SCHEMA!r}"
                )
            trace = pickle.loads(payload)
            if not isinstance(trace, KernelTrace):
                raise ValueError("payload is not a KernelTrace")
        except Exception:
            # corruption tolerance: a bad entry is a miss, not a crash —
            # drop it so it cannot fail every later launch too
            self.corrupt += 1
            try:
                file.unlink()
            except OSError:
                pass
            return None
        return header, trace

    def lookup(self, key: tuple) -> KernelTrace | None:
        """The persisted plan for ``key``, or None (a disk-tier miss)."""
        if not persistable_key(key):
            self.unsupported += 1
            return None
        try:
            key_text = canonical_key(key)
        except (TypeError, ValueError):
            self.unsupported += 1
            return None
        file = self.entry_path(key_text)
        if not file.exists():
            self.misses += 1
            return None
        loaded = self._load_entry(file)
        if loaded is None:
            self.misses += 1
            return None
        header, trace = loaded
        if header.get("key") != json.loads(key_text):
            # sha-prefix collision (astronomically unlikely): treat as miss
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(file)  # LRU touch
        except OSError:
            pass
        return trace

    # -- store side ----------------------------------------------------------
    def store(self, key: tuple, kernel, trace: KernelTrace) -> bool:
        """Persist one plan; returns False when the key is unpersistable."""
        if not persistable_key(key):
            self.unsupported += 1
            return False
        try:
            key_text = canonical_key(key)
        except (TypeError, ValueError):
            self.unsupported += 1
            return False
        header = {
            "schema": ENTRY_SCHEMA,
            "kernel": trace.kernel_name,
            "key": json.loads(key_text),
        }
        blob = (
            json.dumps(header, separators=(",", ":")).encode("utf-8")
            + b"\n"
            + serialize_trace(trace)
        )
        try:
            atomic_write_bytes(self.entry_path(key_text), blob)
        except OSError:
            return False
        self._known.add(key_text)
        self.stored += 1
        self._evict_over_cap()
        return True

    def ensure(self, key: tuple, kernel, trace: KernelTrace) -> bool:
        """Persist ``key`` only if no complete entry for it exists yet.

        The memo-hit backfill path: a process whose in-memory memo was
        already warm (an earlier run in the same process, a preloaded
        plan) still populates a freshly configured cache directory. A
        known-persisted set keeps the hot path to one ``stat`` per key.
        """
        if not persistable_key(key):
            return False
        try:
            key_text = canonical_key(key)
        except (TypeError, ValueError):
            return False
        if key_text in self._known:
            return True
        if self.entry_path(key_text).exists():
            self._known.add(key_text)
            return True
        return self.store(key, kernel, trace)

    def _evict_over_cap(self) -> None:
        files = self._entry_files()
        if len(files) <= self.max_entries:
            return
        by_age = sorted(files, key=lambda f: f.stat().st_mtime)
        for stale in by_age[: len(files) - self.max_entries]:
            try:
                stale.unlink()
                self.evicted += 1
            except OSError:
                pass

    # -- bulk operations -----------------------------------------------------
    def entries(self) -> list[dict]:
        """Headers of every valid entry (corrupt ones are dropped)."""
        out = []
        for file in self._entry_files():
            loaded = self._load_entry(file)
            if loaded is not None:
                header, _ = loaded
                header["bytes"] = file.stat().st_size
                header["file"] = file.name
                out.append(header)
        return out

    def preload(self, memo: TraceMemo) -> int:
        """Promote every valid persisted plan into ``memo``; returns count.

        Preloaded entries carry no kernel object (``kernel`` is None);
        the memo only ever hands back the trace, so a warm process's
        first launch of a cached kernel is already an in-memory hit.
        """
        loaded = 0
        for file in self._entry_files():
            entry = self._load_entry(file)
            if entry is None:
                continue
            header, trace = entry
            memo.entry(freeze_key(header["key"])).trace = trace
            loaded += 1
        return loaded

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for file in self._entry_files():
            try:
                file.unlink()
                removed += 1
            except OSError:
                pass
        self._known.clear()
        return removed

    def stats(self) -> dict:
        files = self._entry_files()
        return {
            "path": str(self.path),
            "schema": ENTRY_SCHEMA,
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "unsupported": self.unsupported,
        }


# ---------------------------------------------------------------------------
# process wiring
# ---------------------------------------------------------------------------

#: the path the process-wide memo's disk tier was configured with (the
#: value worker pools forward to their spawned children)
_CONFIGURED_PATH: str | None = None


def configure(
    path: str | os.PathLike,
    *,
    memo: TraceMemo | None = None,
    max_entries: int = 512,
) -> JitDiskCache:
    """Attach a disk cache at ``path`` to ``memo`` (default: process-wide).

    From here on, keyed misses persist their plans and cold lookups
    consult the disk tier. Returns the attached cache.
    """
    global _CONFIGURED_PATH
    target = memo if memo is not None else trace_memo()
    cache = JitDiskCache(path, max_entries=max_entries)
    target.disk = cache
    if memo is None or memo is trace_memo():
        _CONFIGURED_PATH = str(cache.path)
    return cache


def deconfigure(*, memo: TraceMemo | None = None) -> None:
    """Detach the disk tier (tests and CLI teardown)."""
    global _CONFIGURED_PATH
    target = memo if memo is not None else trace_memo()
    target.disk = None
    if memo is None or memo is trace_memo():
        _CONFIGURED_PATH = None


def configured_path() -> str | None:
    """The process-wide disk-cache path, if one is configured."""
    return _CONFIGURED_PATH


def warm_start(
    path: str | os.PathLike,
    *,
    memo: TraceMemo | None = None,
    max_entries: int = 512,
) -> dict:
    """Configure ``path`` and preload every persisted plan into the memo.

    The warm-start entry point for worker processes and service
    startup: after this, the first launch of every cached kernel
    specialization is an in-memory memo hit. Returns the cache stats
    plus the number of preloaded plans.
    """
    target = memo if memo is not None else trace_memo()
    cache = configure(path, memo=memo, max_entries=max_entries)
    loaded = cache.preload(target)
    tracer = observe.active()
    if tracer is not None:
        tracer.metrics.counter("gpu.jitcache.preloaded").inc(loaded)
    stats = cache.stats()
    stats["preloaded"] = loaded
    return stats
