"""The JIT disk cache: compiled kernel objects, one per C source.

The paper's Figure 7 headline is the 12.5x first-launch JIT penalty;
Julia's answer in the years since has been precompilation and
pkgimages: compile once, persist the result, start every later process
hot. Here the expensive part of a first launch is the ``cc`` compile of
the lowered stencil (:mod:`repro.ir.lower`), so that is what persists.

A cache is a directory of ``<sha256(C source)[:32]>.so`` files; the
source's first line names the compile flags, so the name covers them. This
module owns them and the per-process table of loaded objects:
:func:`load` answers a C source from the table, then from the
configured directory, and only then runs the compile step its caller
supplies. Objects land by atomic rename (two processes racing one
source both leave one loadable object); an object that does not load,
or is shorter than its ELF headers say, is compiled again over; the
directory keeps the :data:`MAX_ENTRIES` most recently used objects.

:func:`configure` is the one entry point: it points the process at a
directory and writes every object the process has already compiled
into it. ``repro.par`` workers and the ``repro.serve`` service call it
with the path the parent had configured.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
import tempfile
import threading
from pathlib import Path
from typing import Callable

from repro.util.errors import GpuError
from repro.util.files import atomic_write_bytes

#: objects a cache directory keeps; loads refresh an object's mtime and
#: writes evict the stalest beyond this
MAX_ENTRIES = 512

#: filename suffix of a cached object
SUFFIX = ".so"


class JitCacheError(GpuError):
    """The JIT disk cache cannot be used as requested."""


def _whole(blob: bytes) -> bool:
    """Whether ``blob`` is as long as its ELF64 section table says.

    A truncated object faults inside ``dlopen`` instead of raising, so
    it is caught here. Other formats are left to the loader, which
    raises ``OSError`` for most damage.
    """
    if blob[:5] != b"\x7fELF\x02":
        return True
    if len(blob) < 64:
        return False
    order = "<" if blob[5] == 1 else ">"
    (shoff,) = struct.unpack_from(order + "Q", blob, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", blob, 0x3A)
    return len(blob) >= shoff + shentsize * shnum


class JitDiskCache:
    """The compiled kernel objects under one directory."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise JitCacheError(f"jit cache path {self.path} exists and is not a directory")
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise JitCacheError(
                f"cannot create jit cache directory {self.path}: {exc}") from exc
        if not os.access(self.path, os.W_OK):
            raise JitCacheError(f"jit cache directory {self.path} is not writable")

    def object_path(self, digest: str) -> Path:
        return self.path / (digest[:32] + SUFFIX)

    def _objects(self) -> list[Path]:
        return sorted(self.path.glob("*" + SUFFIX))

    def read(self, digest: str) -> bytes | None:
        """The whole object of ``digest``, or None; a hit counts as a use."""
        target = self.object_path(digest)
        try:
            blob = target.read_bytes()
            os.utime(target)
        except OSError:
            return None
        return blob if _whole(blob) else None

    def put(self, digest: str, blob: bytes) -> None:
        """Publish one object atomically, then evict beyond the cap; a
        write that fails leaves the directory as it was."""
        try:
            atomic_write_bytes(self.object_path(digest), blob)
            objects = self._objects()
            for stale in sorted(objects, key=lambda f: f.stat().st_mtime)[
                    : max(0, len(objects) - MAX_ENTRIES)]:
                stale.unlink(missing_ok=True)
        except OSError:
            pass

    def entries(self) -> list[dict]:
        """File name and size of every object, by name."""
        return [{"file": f.name, "bytes": f.stat().st_size} for f in self._objects()]

    def clear(self) -> int:
        """Delete every object; returns how many were removed."""
        objects = self._objects()
        for f in objects:
            f.unlink(missing_ok=True)
        return len(objects)

    def stats(self) -> dict:
        entries = self.entries()
        return {
            "path": str(self.path),
            "objects": len(entries),
            "bytes": sum(e["bytes"] for e in entries),
            "cap": MAX_ENTRIES,
        }


#: sha256 of a C source -> (its loaded object, the object's bytes), per
#: process; the bytes are what :func:`configure` writes to a new directory
_NATIVE: dict[str, tuple[ctypes.CDLL, bytes]] = {}
_LOCK = threading.Lock()
_CACHE: JitDiskCache | None = None


def load(source: str, compile: Callable[[Path], Path]) -> ctypes.CDLL:
    """The loaded object of C ``source``, under one lock.

    From this process's table, else the configured directory, else
    ``compile(tmp)``, which builds the object under the directory
    ``tmp`` and returns its path; the result goes into the configured
    directory, if any.
    """
    digest = hashlib.sha256(source.encode()).hexdigest()
    with _LOCK:
        known = _NATIVE.get(digest)
        if known is None:
            known = _NATIVE[digest] = _load(digest, compile)
        return known[0]


def _load(digest: str, compile) -> tuple[ctypes.CDLL, bytes]:
    cache = _CACHE
    if cache is not None and (blob := cache.read(digest)) is not None:
        try:
            return ctypes.CDLL(str(cache.object_path(digest))), blob
        except OSError:  # not a loadable object: compile over it
            pass
    with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
        built = compile(Path(tmp))
        blob = built.read_bytes()
        lib = ctypes.CDLL(str(built))
    if cache is not None:
        cache.put(digest, blob)
    return lib, blob


def configure(path: str | os.PathLike) -> JitDiskCache:
    """Use the cache directory ``path`` from here on, and write every
    object this process has compiled so far into it."""
    global _CACHE
    cache = JitDiskCache(path)
    with _LOCK:
        _CACHE = cache
        for digest, (_, blob) in _NATIVE.items():
            if cache.read(digest) is None:
                cache.put(digest, blob)
    return cache


def deconfigure() -> None:
    """Stop using a cache directory (tests and CLI teardown)."""
    global _CACHE
    _CACHE = None


def configured_path() -> str | None:
    """The configured cache directory, if any (what worker pools pass on)."""
    return None if _CACHE is None else str(_CACHE.path)
