"""NumPy epoch event queues: the default path of virtual SPMD runs.

The discrete-event engine (:mod:`repro.sched.engine`) dispatches one
Python callback per event. The virtual SPMD workload it mostly runs
(:mod:`repro.core.virtual`) is far more regular than that generality
requires: between two output-step barriers every rank executes the
same program — an optional JIT compile, ``plotgap`` x (kernel, halo
exchange), an optional BP5 write on the node leader — and ranks never
interact except at the barrier. One such barrier-to-barrier window is
an **epoch**.

:func:`simulate_epoch` advances a whole epoch with a handful of NumPy
array operations instead of ~4 heap events per rank per step. The
float arithmetic replicates the generator engine's op-for-op:

- a kernel-then-exchange step is ``t = (t + kernel) + comm`` (two
  IEEE-754 additions per rank, the same two the engine's ``Delay``
  commands perform);
- an overlapped step is ``t = max(t + kernel, t + comm)`` — the
  engine's ``Join`` resumes the rank at whichever of the kernel delay
  and the spawned halo process finishes later;
- an overlapped write drains concurrently (``end = start + seconds``)
  and the final segment's ``Join`` is ``t = max(t, end)`` on the
  leader.

NumPy float64 elementwise arithmetic is IEEE double — identical to
CPython float arithmetic — so the produced timestamps are bit-identical
to the generator engine's, which the property tests in
``tests/sched/test_vector.py`` pin.

Tracing replays through an :class:`EpochEventQueue`: a structured array
of ``(when, seq, rank, op)`` plus parallel seconds/tag columns, filled
by the vector loops and drained in ``(when, seq)`` order — the same
(time, FIFO) order the event heap dispatches in — as one columnar
:class:`~repro.observe.trace.SpanBatch` per epoch
(:func:`emit_epoch_spans`). Untraced runs skip the queue entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import SchedError

#: structured layout of one queued epoch event
EPOCH_EVENT_DTYPE = np.dtype(
    [
        ("when", "f8"),  # sim-clock start of the span
        ("seq", "i8"),  # global push order — the heap's FIFO tie-break
        ("rank", "i8"),  # owning rank (node id for write events)
        ("op", "u1"),  # opcode, one of the OP_* constants
    ]
)

#: epoch event opcodes
OP_JIT = 0
OP_KERNEL = 1
OP_HALO = 2
OP_WRITE = 3


class EpochEventQueue:
    """Append-only batches of homogeneous epoch events.

    Each :meth:`push` stores one vectorized batch (same opcode, one
    entry per rank); :meth:`sorted_events` concatenates the batches and
    orders them by ``(when, seq)``, reproducing the dispatch order of
    the event heap for the same schedule.
    """

    def __init__(self) -> None:
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._seq = 0

    def __len__(self) -> int:
        return self._seq

    def push(self, op: int, when, seconds, ranks, *, tag: int = 0) -> None:
        """Queue one batch: ``op`` at ``when`` for ``seconds`` per rank.

        ``tag`` carries per-batch metadata (the output step of a write
        batch); ``seconds`` broadcasts over the batch.
        """
        when = np.ascontiguousarray(when, dtype=np.float64)
        n = when.size
        if n == 0:
            return
        events = np.empty(n, dtype=EPOCH_EVENT_DTYPE)
        events["when"] = when
        events["seq"] = np.arange(self._seq, self._seq + n, dtype=np.int64)
        events["rank"] = ranks
        events["op"] = op
        seconds_col = np.empty(n, dtype=np.float64)
        seconds_col[:] = seconds
        tags = np.full(n, tag, dtype=np.int64)
        self._seq += n
        self._chunks.append((events, seconds_col, tags))

    def sorted_events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(events, seconds, tags)`` in global ``(when, seq)`` order."""
        if not self._chunks:
            empty = np.empty(0, dtype=EPOCH_EVENT_DTYPE)
            return empty, np.empty(0), np.empty(0, dtype=np.int64)
        events = np.concatenate([chunk[0] for chunk in self._chunks])
        seconds = np.concatenate([chunk[1] for chunk in self._chunks])
        tags = np.concatenate([chunk[2] for chunk in self._chunks])
        # seq is unique, so this is the (when, seq) order
        order = np.lexsort((events["seq"], events["when"]))
        return events[order], seconds[order], tags[order]


@dataclass
class EpochWrites:
    """The node-leader BP5 writes drained during one epoch."""

    index: np.ndarray  #: leader positions within the epoch's rank slice
    nodes: np.ndarray  #: node id per leader (the write span's ``node`` arg)
    seconds: np.ndarray  #: modeled write seconds per leader
    output_step: int  #: which output the writes belong to


@dataclass
class EpochSpec:
    """One epoch of one contiguous rank slice, ready to vectorize."""

    ranks: np.ndarray  #: global rank ids of the slice
    starts: np.ndarray  #: per-rank epoch start times (barrier-coupled)
    kernel: np.ndarray  #: per-rank kernel seconds per step
    comm: np.ndarray  #: per-rank halo-exchange seconds per step
    nsteps: int
    overlap: bool
    jit_seconds: float = 0.0  #: one-time compile charged at epoch start
    writes: EpochWrites | None = None
    final: bool = False  #: join the pending write before arriving


@dataclass
class EpochResult:
    arrivals: np.ndarray  #: per-rank barrier-arrival times
    write_ends: np.ndarray | None  #: per-leader write end times
    events: int  #: engine-equivalent event count of the epoch


def simulate_epoch(
    spec: EpochSpec, *, queue: EpochEventQueue | None = None
) -> EpochResult:
    """Advance one epoch for every rank of the slice at once.

    Returns the per-rank arrival times at the closing barrier and (for
    overlapped writes) the per-leader drain end times the caller needs
    for the next epoch's ``Join`` coupling. With a ``queue``, every
    traced span of the epoch is recorded for :func:`emit_epoch_spans`.
    """
    n = int(spec.starts.size)
    if spec.kernel.size != n or spec.comm.size != n or spec.ranks.size != n:
        raise SchedError(
            "epoch arrays disagree on rank count: "
            f"starts={n} kernel={spec.kernel.size} "
            f"comm={spec.comm.size} ranks={spec.ranks.size}"
        )
    # counted as an engine would for one epoch run on its own: one
    # spawn event per rank, plus an unlabeled bridge delay for every
    # rank whose epoch starts after t=0
    t = spec.starts.astype(np.float64, copy=True)
    events = n + int(np.count_nonzero(t))
    if spec.jit_seconds > 0.0:
        if queue is not None:
            queue.push(OP_JIT, t, spec.jit_seconds, spec.ranks)
        t = t + spec.jit_seconds
        events += n
    writes = spec.writes
    write_ends = None
    if writes is not None and writes.index.size:
        write_starts = t[writes.index]
        if queue is not None:
            queue.push(
                OP_WRITE,
                write_starts,
                writes.seconds,
                writes.nodes,
                tag=writes.output_step,
            )
        write_ends = write_starts + writes.seconds
        if spec.overlap:
            # the leader spawns the drain and keeps stepping
            events += 2 * int(writes.index.size)
        else:
            t[writes.index] = write_ends
            events += int(writes.index.size)
    kernel = spec.kernel
    comm = spec.comm
    if spec.overlap:
        for _ in range(spec.nsteps):
            if queue is not None:
                queue.push(OP_HALO, t, comm, spec.ranks)
                queue.push(OP_KERNEL, t, kernel, spec.ranks)
            # Join(halo): resume at whichever finishes later; both ends
            # are single additions from the common step start, exactly
            # as the engine schedules them
            t = np.maximum(t + kernel, t + comm)
        events += 4 * n * spec.nsteps
    else:
        for _ in range(spec.nsteps):
            kernel_end = t + kernel
            if queue is not None:
                queue.push(OP_KERNEL, t, kernel, spec.ranks)
                queue.push(OP_HALO, kernel_end, comm, spec.ranks)
            t = kernel_end + comm
        events += 2 * n * spec.nsteps
    if spec.final and spec.overlap and write_ends is not None:
        # Join(pending write) before the allreduce arrival
        t[writes.index] = np.maximum(t[writes.index], write_ends)
        events += int(writes.index.size)
    return EpochResult(arrivals=t, write_ends=write_ends, events=events)


def emit_epoch_spans(
    queue: EpochEventQueue, tracer, *, kernel_name: str, backend: str
) -> int:
    """Replay the queued epoch events into ``tracer`` as one span batch.

    Spans are emitted in ``(when, seq)`` order through the tracer's
    columnar :meth:`~repro.observe.trace.Tracer.add_spans`. The span
    kinds replicate the generator engine's mirroring exactly — same
    names, categories, lanes, and args as the ``Delay`` commands of
    :class:`~repro.gpu.proxy.VirtualGcd` and the BP5 write plan — so
    the span *multiset* of an epoch run equals the generator run's.
    """
    from repro.observe.trace import ID, SIM, TAG, SpanBatch, SpanKind

    events, seconds, tags = queue.sorted_events()
    if not events.size:
        return 0
    kinds = [None] * 4
    kinds[OP_JIT] = SpanKind(
        "jit.compile", "gpu", SIM, "gcd", "kernel", process_id=True,
        args=(("backend", backend),),
    )
    kinds[OP_KERNEL] = SpanKind(
        kernel_name, "gpu", SIM, "gcd", "kernel", process_id=True,
        args=(("gcd", ID),),
    )
    kinds[OP_HALO] = SpanKind(
        "halo", "mpi", SIM, "vrank", "mpi", process_id=True
    )
    kinds[OP_WRITE] = SpanKind(
        "bp5.write", "adios", SIM, "lustre-oss", "write",
        args=(("node", ID), ("output_step", TAG)),
    )
    batch = SpanBatch(
        kinds, kind=events["op"], id=events["rank"], start=events["when"],
        seconds=seconds, tag=tags,
    )
    return tracer.add_spans(batch)
