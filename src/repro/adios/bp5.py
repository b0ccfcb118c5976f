"""The on-disk BP5-style format.

A dataset is a directory ``<name>.bp/`` containing

- ``data.<k>`` — binary subfiles, one per aggregator (one per node in
  the paper's runs), holding concatenated raw blocks in Fortran byte
  order, and
- ``md.idx.json`` — the metadata index: variables, attributes, steps,
  and one :class:`~repro.adios.variable.BlockInfo` per written block
  (subfile + byte offset + global placement + min/max + CRC32).

Real BP5 serializes its index in a binary format; we use JSON (see the
package docstring for why this divergence is acceptable). Everything a
reader needs — random access to any block of any step without scanning
data, per-block statistics for query pushdown, subfile aggregation —
is structurally faithful.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.adios.variable import Attribute, BlockInfo
from repro.util.errors import CorruptFileError
from repro.util.files import atomic_write_text

FORMAT_NAME = "repro-bp5"
FORMAT_VERSION = 1
INDEX_FILE = "md.idx.json"


def dataset_path(path: str | os.PathLike) -> Path:
    """Normalize a dataset path (append .bp if missing)."""
    p = Path(path)
    if p.suffix != ".bp":
        p = p.with_name(p.name + ".bp")
    return p


@dataclass
class VariableIndexEntry:
    """Per-variable summary in the index."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    steps: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "steps": self.steps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "VariableIndexEntry":
        return cls(
            name=data["name"],
            dtype=data["dtype"],
            shape=tuple(data["shape"]),
            steps=list(data["steps"]),
        )


@dataclass
class Bp5Index:
    """The whole metadata index of a dataset (``blocks`` is append-only)."""

    nsteps: int = 0
    nsubfiles: int = 0
    variables: dict[str, VariableIndexEntry] = field(default_factory=dict)
    attributes: dict[str, Attribute] = field(default_factory=dict)
    blocks: list[BlockInfo] = field(default_factory=list)
    engine: str = "BP5"
    _block_texts: list[str] = field(default_factory=list, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "engine": self.engine,
            "order": "F",
            "nsteps": self.nsteps,
            "nsubfiles": self.nsubfiles,
            "variables": [v.to_json() for v in self.variables.values()],
            "attributes": {k: _attr_to_json(a) for k, a in self.attributes.items()},
            "blocks": [b.to_json() for b in self.blocks],
        }

    def to_text(self) -> str:
        """``json.dumps(self.to_json(), indent=1)``, encoding each block once.

        A block nests two levels deep, so its cached text is its
        standalone ``indent=1`` dump with two more spaces on every line
        after the first; the header is encoded afresh each time.
        """
        texts = self._block_texts
        for block in self.blocks[len(texts):]:
            texts.append(json.dumps(block.to_json(), indent=1).replace("\n", "\n  "))
        head = json.dumps(replace(self, blocks=[]).to_json(), indent=1)
        if not texts:
            return head
        # head ends with the empty list: '"blocks": []\n}'
        return head[:-4] + "[\n  " + ",\n  ".join(texts) + "\n ]\n}"

    @classmethod
    def from_json(cls, data: dict) -> "Bp5Index":
        if data.get("format") != FORMAT_NAME:
            raise CorruptFileError(
                f"not a {FORMAT_NAME} index (format={data.get('format')!r})"
            )
        if data.get("version") != FORMAT_VERSION:
            raise CorruptFileError(
                f"unsupported index version {data.get('version')!r}"
            )
        index = cls(
            nsteps=int(data["nsteps"]),
            nsubfiles=int(data["nsubfiles"]),
            engine=data.get("engine", "BP5"),
        )
        for ventry in data["variables"]:
            entry = VariableIndexEntry.from_json(ventry)
            index.variables[entry.name] = entry
        for name, araw in data["attributes"].items():
            index.attributes[name] = Attribute(name, _attr_from_json(araw))
        index.blocks = [BlockInfo.from_json(b) for b in data["blocks"]]
        return index

    # -- queries ---------------------------------------------------------
    def blocks_for(self, var: str, step: int | None = None) -> list[BlockInfo]:
        return [
            b
            for b in self.blocks
            if b.var == var and (step is None or b.step == step)
        ]

    def var_minmax(self, var: str) -> tuple[float, float]:
        """Global min/max across all steps and blocks (bpls' Min/Max)."""
        blocks = self.blocks_for(var)
        if not blocks:
            raise CorruptFileError(f"variable {var!r} has no blocks")
        return min(b.vmin for b in blocks), max(b.vmax for b in blocks)


def _attr_to_json(attr: Attribute) -> dict:
    value = attr.value
    if isinstance(value, tuple):
        value = list(value)
    return {"value": value}


def _attr_from_json(raw: dict):
    return raw["value"]


# ---------------------------------------------------------------------------
# on-disk operations
# ---------------------------------------------------------------------------


def create_dataset(path: Path, nsubfiles: int) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for k in range(nsubfiles):
        (path / f"data.{k}").write_bytes(b"")


def write_index(path: Path, index: Bp5Index) -> None:
    # atomic write-then-rename: readers never see a torn index
    atomic_write_text(path / INDEX_FILE, index.to_text())


def read_index(path: str | os.PathLike) -> Bp5Index:
    p = dataset_path(path)
    index_file = p / INDEX_FILE
    if not index_file.exists():
        raise CorruptFileError(f"{p}: missing metadata index {INDEX_FILE}")
    try:
        raw = json.loads(index_file.read_text())
    except json.JSONDecodeError as exc:
        raise CorruptFileError(f"{index_file}: unparseable index: {exc}") from exc
    try:
        return Bp5Index.from_json(raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"{index_file}: malformed index ({type(exc).__name__}: {exc})"
        ) from exc


def check_subfiles(path: str | os.PathLike, index: Bp5Index) -> None:
    """Raise if a data subfile is missing or shorter than its blocks."""
    p = dataset_path(path)
    ends: dict[int, int] = {}
    for block in index.blocks:
        end = block.offset + block.nbytes
        ends[block.subfile] = max(ends.get(block.subfile, 0), end)
    for subfile, end in sorted(ends.items()):
        target = p / f"data.{subfile}"
        if not target.exists():
            raise CorruptFileError(f"{target}: missing data subfile")
        size = target.stat().st_size
        if size < end:
            raise CorruptFileError(
                f"{target}: truncated (index declares {end} B, file holds "
                f"{size} B)"
            )


#: max buffers per writev() call (POSIX guarantees >= 16; Linux: 1024)
_IOV_MAX = min(getattr(os, "sysconf", lambda _: 1024)("SC_IOV_MAX")
               if hasattr(os, "sysconf") else 1024, 1024)


def append_blocks(path: Path, subfile: int, payloads) -> list[int]:
    """Append many blocks to a subfile in one open + one batched write.

    The fast path behind ``BP5Writer.end_step``: instead of re-opening
    the subfile and issuing one ``write()`` per block, the step's
    payloads go out through vectored ``os.writev`` (batched by
    ``IOV_MAX``), so a step is one open/seek plus a handful of
    syscalls regardless of how many blocks the aggregator gathered.
    Payloads may be any bytes-like object — including the zero-copy
    ``memoryview``s from :func:`block_payload`. Returns each block's
    write offset, in input order.
    """
    views = [memoryview(p).cast("B") for p in payloads]
    target = path / f"data.{subfile}"
    offsets: list[int] = []
    with open(target, "ab", buffering=0) as fh:
        offset = fh.seek(0, os.SEEK_END)
        for view in views:
            offsets.append(offset)
            offset += view.nbytes
        pending = [v for v in views if v.nbytes]
        if not hasattr(os, "writev"):  # pragma: no cover - POSIX fallback
            fh.write(b"".join(pending))
            return offsets
        fd = fh.fileno()
        while pending:
            written = os.writev(fd, pending[:_IOV_MAX])
            while pending and written >= pending[0].nbytes:
                written -= pending[0].nbytes
                pending.pop(0)
            if written:  # partial write inside a buffer: re-slice it
                pending[0] = pending[0][written:]
    return offsets


def read_block(path: Path, block: BlockInfo, dtype, *, verify: bool = True) -> np.ndarray:
    """Read one block back as a Fortran-ordered array of ``block.count``."""
    target = path / f"data.{block.subfile}"
    if not target.exists():
        raise CorruptFileError(f"{target}: missing data subfile")
    with open(target, "rb") as fh:
        fh.seek(block.offset)
        payload = fh.read(block.nbytes)
    if len(payload) != block.nbytes:
        raise CorruptFileError(
            f"{target}: truncated block for {block.var} step {block.step} "
            f"(wanted {block.nbytes} B at offset {block.offset}, got {len(payload)})"
        )
    if verify and (zlib.crc32(payload) & 0xFFFFFFFF) != block.crc32:
        raise CorruptFileError(
            f"{target}: CRC mismatch for {block.var} step {block.step} "
            f"block of rank {block.writer_rank}"
        )
    if block.codec is not None:
        from repro.adios.operators import decompress

        payload = decompress(block.codec, {}, payload, block.raw_nbytes)
    flat = np.frombuffer(payload, dtype=dtype)
    return flat.reshape(block.count, order="F")


def block_payload(data: np.ndarray) -> tuple[memoryview, int]:
    """Serialize an array block to (Fortran-order buffer, crc32).

    Returns a **zero-copy** ``memoryview`` whenever the input is already
    Fortran-contiguous (the solver's native layout): the transpose of an
    F-contiguous array is C-contiguous, so casting it to a flat byte
    view walks the array in Fortran byte order without the ``tobytes``
    copy the old path paid per block. Non-contiguous inputs still copy
    once. The view supports everything downstream needs — ``len()``,
    CRC32, compression, ``os.writev`` — but is *not* picklable: the BP5
    writer ships it to a remote aggregator as ``np.frombuffer(payload,
    np.uint8)``, an array message the buffered send copies once.
    """
    arr = np.asfortranarray(data)
    if arr.ndim == 0:
        payload = memoryview(arr.tobytes()).cast("B")
    else:
        payload = memoryview(arr.T).cast("B")
    return payload, zlib.crc32(payload) & 0xFFFFFFFF
