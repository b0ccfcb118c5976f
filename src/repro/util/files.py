"""Atomic file writes: write-then-rename, shared by every on-disk artifact.

Three subsystems used to hand-roll the same tmp-file-plus-rename dance
(the BP5 metadata index, the benchmark ``BENCH_*.json`` writers, the
SARIF reporter); the persistent JIT cache made a fourth. This module is
the single implementation: the payload lands in a uniquely-named
temporary file *in the destination directory* (same filesystem, so the
rename cannot degrade to a copy) and ``os.replace`` publishes it — a
reader never observes a torn or partially-written file, and two writers
racing the same path leave whichever complete version replaced last.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (write temp + rename).

    Returns the destination as a :class:`~pathlib.Path`. On any failure
    the temporary file is removed and the original destination (if any)
    is left untouched.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


def atomic_write_text(
    path: str | os.PathLike, text: str, *, encoding: str = "utf-8"
) -> Path:
    """Text-mode :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))
