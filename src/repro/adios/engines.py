"""BP5 writer and reader engines.

Writer protocol (mirrors ADIOS2's BP5 aggregation, Section 5.3 of the
paper: "a single sub-file per node"):

1. ranks are partitioned contiguously over ``nsubfiles`` aggregators
   (default: one per 8 ranks — one per Frontier node);
2. at ``end_step`` every rank serializes its deferred puts and sends
   them to its aggregator, which appends them to its data subfile in
   rank order and records block offsets;
3. aggregators forward block metadata to rank 0, which merges it into
   the JSON index and rewrites it atomically — so a dataset is readable
   after every completed step, like real BP5.

The reader is serial (the paper's analysis side is a single Jupyter
kernel): it loads the index once and assembles any box selection of any
step from the intersecting blocks, verifying CRCs.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from repro.adios import bp5
from repro.adios.variable import Attribute, BlockInfo, Variable
from repro.observe import trace as observe
from repro.util.errors import EngineStateError, VariableError

if TYPE_CHECKING:  # pragma: no cover
    from repro.adios.api import IO
    from repro.mpi.comm import Comm

_TAG_BLOCKS = 1
_TAG_META = 2

#: default aggregation: one subfile per 8 ranks, one per Frontier node
RANKS_PER_SUBFILE = 8


def _adios_span(rank: int, name: str, **args):
    """Wall-clock tracer span on this rank's adios lane (or a no-op)."""
    tracer = observe.active()
    if tracer is None:
        return nullcontext()
    return tracer.span(
        name, cat="adios", process=f"rank{rank}", thread="adios", args=args
    )


class BP5Writer:
    """Step-based parallel writer."""

    def __init__(
        self,
        io: "IO",
        path,
        *,
        comm: "Comm | None" = None,
        mode: str = "w",
        aggregators: int | None = None,
    ):
        if mode not in ("w", "a"):
            raise EngineStateError(f"BP5Writer mode must be 'w' or 'a', got {mode!r}")
        self.io = io
        self.path = bp5.dataset_path(path)
        self.comm = comm.dup() if comm is not None else None
        self.rank = comm.rank if comm else 0
        self.size = comm.size if comm else 1
        self.nsubfiles = aggregators or max(1, -(-self.size // RANKS_PER_SUBFILE))
        if self.nsubfiles > self.size:
            raise EngineStateError(
                f"{self.nsubfiles} aggregators for {self.size} ranks"
            )
        self._subfile = self.rank * self.nsubfiles // self.size
        self._in_step = False
        self._closed = False
        self._step = -1
        self._deferred: list[tuple[Variable, np.ndarray]] = []
        #: steps this writer completed (close() writes the index if none)
        self.steps_written = 0

        if self.rank == 0:
            if mode == "w":
                bp5.create_dataset(self.path, self.nsubfiles)
                self._index = bp5.Bp5Index(nsubfiles=self.nsubfiles)
            else:
                self._index = bp5.read_index(self.path)
                if self._index.nsubfiles != self.nsubfiles:
                    raise EngineStateError(
                        f"append with {self.nsubfiles} aggregators onto a "
                        f"dataset written with {self._index.nsubfiles}"
                    )
            self._index.attributes.update(
                {a.name: a for a in self.io.attributes.values()}
            )
        else:
            self._index = None
        if mode == "a":
            # all ranks need the step counter to continue correctly
            nsteps = self._index.nsteps if self.rank == 0 else None
            if self.comm is not None:
                nsteps = self.comm.bcast(nsteps, root=0)
            self._step = nsteps - 1
        if self.comm is not None:
            self.comm.barrier()  # dataset dir exists before anyone proceeds

    # -- aggregation geometry -------------------------------------------
    def _aggregator_rank(self, subfile: int) -> int:
        """Lowest rank mapped to ``subfile``."""
        return -(-subfile * self.size // self.nsubfiles)

    def _members(self, subfile: int) -> list[int]:
        return [
            r for r in range(self.size) if r * self.nsubfiles // self.size == subfile
        ]

    # -- step protocol -----------------------------------------------------
    def begin_step(self) -> int:
        if self._closed:
            raise EngineStateError("begin_step on a closed writer")
        if self._in_step:
            raise EngineStateError("begin_step while a step is already open")
        self._in_step = True
        self._step += 1
        self._deferred.clear()
        tracer = observe.active()
        if tracer is not None:
            tracer.instant(
                "begin_step",
                cat="adios",
                clock=observe.WALL,
                process=f"rank{self.rank}",
                thread="adios",
                args={"step": self._step},
            )
        return self._step

    def put(self, variable: Variable | str, data) -> None:
        """Queue one block for this step (sync semantics: data is copied)."""
        if not self._in_step:
            raise EngineStateError("put outside begin_step/end_step")
        if isinstance(variable, str):
            variable = self.io.inquire_variable(variable)
        if variable.name not in self.io.variables:
            raise VariableError(
                f"variable {variable.name!r} was not defined on IO {self.io.name!r}"
            )
        arr = variable.validate_data(data)
        with _adios_span(
            self.rank, "put", var=variable.name, bytes=arr.nbytes
        ):
            # sync semantics: snapshot the data AND the selection now, so a
            # caller may re-select the same variable and put again within
            # one step (one block per selection)
            self._deferred.append(
                (variable, np.array(arr, copy=True, order="F"),
                 variable.start, variable.count)
            )
        tracer = observe.active()
        if tracer is not None:
            tracer.metrics.counter("adios.put.bytes", rank=self.rank).inc(
                arr.nbytes
            )

    def end_step(self) -> None:
        if not self._in_step:
            raise EngineStateError("end_step without begin_step")
        with _adios_span(
            self.rank, "end_step", step=self._step, subfile=self._subfile
        ):
            self._end_step_inner()
        tracer = observe.active()
        if tracer is not None:
            tracer.metrics.counter("adios.steps", rank=self.rank).inc()

    def _end_step_inner(self) -> None:
        local_blocks = self._serialize_deferred()
        if self.comm is None:
            written, summaries = self._aggregate_and_write([(0, local_blocks)])
            self._merge_index(written, summaries)
        else:
            aggregator = self._aggregator_rank(self._subfile)
            if self.rank == aggregator:
                incoming = [(self.rank, local_blocks)]
                for member in self._members(self._subfile):
                    if member != self.rank:
                        records, _ = self.comm.recv(member, _TAG_BLOCKS)
                        for rec in records:
                            if "payload" not in rec:  # follows as an array
                                rec["payload"], _ = self.comm.recv(member, _TAG_BLOCKS)
                        incoming.append((member, records))
                incoming.sort()
                written, summaries = self._aggregate_and_write(incoming)
                if self.rank == 0:
                    merged = list(written)
                    for subfile in range(self.nsubfiles):
                        agg = self._aggregator_rank(subfile)
                        if agg != 0:
                            other, other_summaries = self.comm.recv(agg, _TAG_META)[0]
                            merged.extend(other)
                            summaries.update(other_summaries)
                    self._merge_index(merged, summaries)
                else:
                    self.comm.send((written, summaries), 0, _TAG_META)
            else:
                # the metadata crosses as one small object message; each
                # payload follows as a uint8 array, which the buffered
                # send copies once (a memoryview does not pickle)
                payloads = [
                    rec.pop("payload") for rec in local_blocks if len(rec["payload"])
                ]
                self.comm.send(local_blocks, aggregator, _TAG_BLOCKS)
                for payload in payloads:
                    self.comm.send(np.frombuffer(payload, np.uint8), aggregator, _TAG_BLOCKS)
            self.comm.barrier()  # step is durable before anyone continues
        self._in_step = False
        self.steps_written += 1

    def _serialize_deferred(self) -> list[dict]:
        """Turn deferred puts into wire records (metadata + payload)."""
        records = []
        for variable, arr, start, count in self._deferred:
            if variable.is_scalar:
                if self.rank != 0:
                    continue  # one scalar block per step, from rank 0
                records.append(
                    {
                        "var": variable.name,
                        "dtype": variable.dtype.name,
                        "shape": (),
                        "start": (),
                        "count": (),
                        "scalar": arr.item(),
                        "payload": b"",
                        "crc": 0,
                        "min": float(np.real(arr)),
                        "max": float(np.real(arr)),
                    }
                )
                continue
            payload, crc = bp5.block_payload(arr)
            codec = None
            raw_nbytes = 0
            if variable.operation is not None:
                from repro.adios.operators import compress
                import zlib as _zlib

                codec, params = variable.operation
                raw_nbytes = len(payload)
                payload = compress(codec, params, payload)
                crc = _zlib.crc32(payload) & 0xFFFFFFFF
            records.append(
                {
                    "var": variable.name,
                    "dtype": variable.dtype.name,
                    "shape": variable.shape,
                    "start": start,
                    "count": count,
                    "scalar": None,
                    "payload": payload,
                    "crc": crc,
                    "min": float(arr.min()),
                    "max": float(arr.max()),
                    "codec": codec,
                    "raw_nbytes": raw_nbytes,
                }
            )
        return records

    def _aggregate_and_write(self, incoming):
        """Append members' payloads to this aggregator's subfile.

        Returns (blocks, variable summaries) — the summaries travel to
        rank 0 with the block metadata so the index can describe
        variables rank 0 never put locally.
        """
        blocks: list[BlockInfo] = []
        summaries: dict[str, tuple[str, tuple]] = {}
        flushed = sum(
            len(rec["payload"]) for _, records in incoming for rec in records
        )
        with _adios_span(
            self.rank, "subfile.flush", subfile=self._subfile, bytes=flushed
        ):
            # fast path: every data block of the step goes out in one
            # open + one vectored write instead of one open per block
            flat = [
                (writer_rank, rec)
                for writer_rank, records in incoming
                for rec in records
            ]
            data_recs = [
                rec for _, rec in flat
                if rec["scalar"] is None and len(rec["payload"]) > 0
            ]
            offsets = iter(
                bp5.append_blocks(
                    self.path, self._subfile,
                    [rec["payload"] for rec in data_recs],
                )
                if data_recs else ()
            )
            for writer_rank, rec in flat:
                if rec["scalar"] is not None or len(rec["payload"]) == 0:
                    offset = 0
                else:
                    offset = next(offsets)
                summaries[rec["var"]] = (rec["dtype"], tuple(rec["shape"]))
                blocks.append(
                    BlockInfo(
                        var=rec["var"],
                        step=self._step,
                        writer_rank=writer_rank,
                        subfile=self._subfile,
                        offset=offset,
                        nbytes=len(rec["payload"]),
                        start=tuple(rec["start"]),
                        count=tuple(rec["count"]),
                        vmin=rec["min"],
                        vmax=rec["max"],
                        crc32=rec["crc"],
                        value=rec["scalar"],
                        codec=rec.get("codec"),
                        raw_nbytes=rec.get("raw_nbytes", 0),
                    )
                )
        tracer = observe.active()
        if tracer is not None:
            tracer.metrics.counter(
                "adios.subfile.bytes", subfile=self._subfile
            ).inc(flushed)
        return blocks, summaries

    def _merge_index(self, blocks: list[BlockInfo], summaries: dict) -> None:
        assert self._index is not None
        self._index.blocks.extend(blocks)
        self._index.nsteps = self._step + 1
        for block in blocks:
            dtype_name, shape = summaries[block.var]
            entry = self._index.variables.get(block.var)
            if entry is None:
                entry = bp5.VariableIndexEntry(block.var, dtype_name, shape)
                self._index.variables[block.var] = entry
            if block.step not in entry.steps:
                entry.steps.append(block.step)
        self._index.attributes.update({a.name: a for a in self.io.attributes.values()})
        bp5.write_index(self.path, self._index)

    def close(self) -> None:
        if self._closed:
            return
        if self._in_step:
            raise EngineStateError("close() inside an open step; call end_step first")
        if self.rank == 0 and self._index is not None and not self.steps_written:
            # end_step writes the index of every step; only a writer
            # that ran none has one left to write
            bp5.write_index(self.path, self._index)
        if self.comm is not None:
            self.comm.barrier()
        self._closed = True

    def __enter__(self) -> "BP5Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True  # don't mask the original error


class BP5Reader:
    """Serial step/selection reader over a finished (or growing) dataset."""

    def __init__(self, io: "IO | None", path, *, verify: bool = True):
        self.io = io
        self.path = bp5.dataset_path(path)
        self.index = bp5.read_index(self.path)
        self.verify = verify

    # -- inventory ---------------------------------------------------------
    @property
    def nsteps(self) -> int:
        return self.index.nsteps

    def variables(self) -> dict[str, bp5.VariableIndexEntry]:
        return dict(self.index.variables)

    @property
    def attributes(self) -> dict[str, Attribute]:
        return dict(self.index.attributes)

    def steps(self, var: str) -> list[int]:
        return list(self._entry(var).steps)

    def minmax(self, var: str) -> tuple[float, float]:
        return self.index.var_minmax(var)

    def blocks(self, var: str, step: int) -> list[BlockInfo]:
        return self.index.blocks_for(var, step)

    def _entry(self, var: str) -> bp5.VariableIndexEntry:
        try:
            return self.index.variables[var]
        except KeyError:
            raise VariableError(
                f"variable {var!r} not in dataset (has: {sorted(self.index.variables)})"
            ) from None

    def _resolve_step(self, var: str, step: int | None) -> int:
        steps = self._entry(var).steps
        if step is None:
            if len(steps) == 1:
                return steps[0]
            raise VariableError(
                f"{var!r} has {len(steps)} steps; pass step= explicitly"
            )
        if step not in steps:
            raise VariableError(f"{var!r} has no step {step} (has {steps})")
        return step

    # -- data --------------------------------------------------------------
    def read(
        self,
        var: str,
        *,
        step: int | None = None,
        start: tuple[int, ...] | None = None,
        count: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """Assemble a box selection of a global array variable."""
        entry = self._entry(var)
        if not entry.shape:
            raise VariableError(f"{var!r} is a scalar; use read_scalar()")
        step = self._resolve_step(var, step)
        shape = entry.shape
        start = tuple(start) if start is not None else (0,) * len(shape)
        count = tuple(count) if count is not None else shape
        if len(start) != len(shape) or len(count) != len(shape):
            raise VariableError(
                f"selection rank mismatch for {var!r} of shape {shape}"
            )
        for s, c, n in zip(start, count, shape):
            if s < 0 or c <= 0 or s + c > n:
                raise VariableError(
                    f"selection [{start}, {count}) outside {var!r} shape {shape}"
                )
        dtype = np.dtype(self._np_dtype(entry.dtype))
        out = np.zeros(count, dtype=dtype, order="F")
        covered = 0
        for block in self.index.blocks_for(var, step):
            overlap = block.intersection(start, count)
            if overlap is None:
                continue
            olo, oextent = overlap
            data = bp5.read_block(self.path, block, dtype, verify=self.verify)
            src = tuple(
                slice(a - bs, a - bs + e) for a, bs, e in zip(olo, block.start, oextent)
            )
            dst = tuple(
                slice(a - ss, a - ss + e) for a, ss, e in zip(olo, start, oextent)
            )
            out[dst] = data[src]
            covered += int(np.prod(oextent))
        if covered < int(np.prod(count)):
            raise VariableError(
                f"{var!r} step {step}: blocks cover only {covered} of "
                f"{int(np.prod(count))} selected cells"
            )
        return out

    def read_scalar(self, var: str, *, step: int | None = None):
        step = self._resolve_step(var, step)
        blocks = self.index.blocks_for(var, step)
        if not blocks:
            raise VariableError(f"{var!r} has no block at step {step}")
        return blocks[0].value

    def scalar_series(self, var: str) -> list:
        """All step values of a scalar variable, in step order."""
        blocks = sorted(self.index.blocks_for(var), key=lambda b: b.step)
        if not blocks:
            raise VariableError(f"{var!r} has no blocks")
        return [b.value for b in blocks]

    @staticmethod
    def _np_dtype(name: str) -> str:
        return name

    def close(self) -> None:
        pass

    def __enter__(self) -> "BP5Reader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
