"""Virtual SPMD: thousands of modeled ranks without threads.

The thread-backed :func:`repro.mpi.executor.run_spmd` runs the *real*
solver but tops out at a few dozen ranks per process. This module runs
**modeled** ranks instead: each virtual rank is a cooperative generator
on the :class:`~repro.sched.engine.Engine`, so a 4,096-rank job is just
4,096 generators sharing one virtual clock — no threads, no GIL, no
per-rank fields.

A rank program is a generator function ``fn(comm)`` over a
:class:`VirtualComm`, composing with ``yield from``::

    def program(comm):
        for step in range(20):
            yield from comm.compute(0.111, label="kernel")
            yield from comm.barrier()
        total = yield from comm.allreduce(comm.rank, op="sum")
        return total

Every communication call is appended to the job's per-rank **op log**,
and :func:`record_plan` replays a program *without* an engine to build
the static :class:`~repro.lint.mpiplan.CommPlan` — so ``repro.lint``
checks (matching, deadlock, collective ordering) run against exactly
the program the virtual job would execute.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator

from repro.sched.engine import Barrier, Engine, Signal, Wait, use
from repro.util.errors import SchedError

#: reduction operators supported by :meth:`VirtualComm.allreduce`
REDUCE_OPS: dict[str, Callable] = {
    "sum": sum,
    "min": min,
    "max": max,
    "prod": math.prod,
}


def replay_allreduce(values, op: str = "sum"):
    """Reduce rank-ordered contributions off the engine.

    The epoch engine of :class:`repro.core.virtual.VirtualWorkflow`
    never runs the final allreduce as engine events; the parent
    replays it with the exact fold :meth:`VirtualComm.allreduce`
    performs — the same operator from :data:`REDUCE_OPS` applied to the
    contributions in rank order — so the replayed result is
    bit-identical to the collective's.
    """
    if op not in REDUCE_OPS:
        raise SchedError(
            f"unknown reduction {op!r}; supported: {sorted(REDUCE_OPS)}"
        )
    return REDUCE_OPS[op]([float(v) for v in values])


@dataclass(frozen=True)
class VirtualOp:
    """One entry of a rank's communication op log (program order)."""

    kind: str  # "barrier" | "allreduce" | "send" | "recv"
    rank: int
    #: collective name for collectives; peer rank for point-to-point
    detail: str = ""
    peer: int = -1
    tag: int = 0


class VirtualJob:
    """Shared state of one virtual SPMD job (engine, barrier, mailboxes)."""

    def __init__(
        self,
        nranks: int,
        *,
        engine: Engine | None = None,
        p2p_seconds: Callable[[int, int, float], float] | None = None,
    ):
        if nranks < 1:
            raise SchedError(f"virtual job needs >= 1 rank, got {nranks}")
        self.nranks = nranks
        self.engine = engine if engine is not None else Engine(name="vspmd")
        self.barrier = Barrier(self.engine, nranks, name="vspmd.barrier")
        #: cost model for send(nbytes); default zero-latency delivery
        self.p2p_seconds = p2p_seconds or (lambda src, dst, nbytes: 0.0)
        self.op_log: list[list[VirtualOp]] = [[] for _ in range(nranks)]
        self._mailboxes: dict[tuple[int, int, int], deque] = {}
        self._recv_signals: dict[tuple[int, int, int], deque[Signal]] = {}
        self._reduce_slots: dict[int, dict] = {}
        self._reduce_round = [0] * nranks

    def comm(self, rank: int) -> "VirtualComm":
        if not 0 <= rank < self.nranks:
            raise SchedError(f"rank {rank} outside virtual job of {self.nranks}")
        return VirtualComm(self, rank)

    # -- p2p plumbing -------------------------------------------------------
    def _deliver(self, src: int, dst: int, tag: int, payload) -> None:
        key = (src, dst, tag)
        waiting = self._recv_signals.get(key)
        if waiting:
            waiting.popleft().fire(payload)
        else:
            self._mailboxes.setdefault(key, deque()).append(payload)

    def _deliver_packed(self, item: tuple) -> None:
        """Single-argument :meth:`_deliver` for closure-free scheduling."""
        self._deliver(*item)


class VirtualComm:
    """One virtual rank's communicator-like handle.

    All blocking operations are generators — ``yield from`` them inside
    a rank program. Modeled compute goes through :meth:`compute`, which
    occupies the rank's GCD resource so overlap/contention are visible
    in the exported timeline.
    """

    def __init__(self, job: VirtualJob, rank: int):
        self.job = job
        self.rank = rank
        self.size = job.nranks
        self.engine = job.engine
        self._gcd = self.engine.resource(
            f"gcd{rank}", lane=(f"gcd{rank}", "kernel")
        )

    def _log(self, kind: str, detail: str = "", peer: int = -1, tag: int = 0):
        self.job.op_log[self.rank].append(
            VirtualOp(kind, self.rank, detail, peer, tag)
        )

    # -- modeled work -------------------------------------------------------
    def compute(
        self, seconds: float, *, label: str = "compute", args: dict | None = None
    ) -> Generator:
        """Occupy this rank's GCD for a modeled duration."""
        yield from use(
            self._gcd, seconds, label=label, cat="gpu", args=args
        )

    # -- collectives --------------------------------------------------------
    def barrier(self) -> Generator:
        self._log("barrier", "barrier")
        yield from self.job.barrier.wait()

    def allreduce(self, value, op: str = "sum") -> Generator:
        """All ranks contribute; all resume with the reduced value."""
        if op not in REDUCE_OPS:
            raise SchedError(
                f"unknown reduction {op!r}; supported: {sorted(REDUCE_OPS)}"
            )
        self._log("allreduce", f"allreduce[{op}]")
        job = self.job
        round_id = job._reduce_round[self.rank]
        job._reduce_round[self.rank] += 1
        slot = job._reduce_slots.setdefault(
            round_id, {"values": {}, "read": 0, "op": op}
        )
        if slot["op"] != op:
            raise SchedError(
                f"allreduce round {round_id} mixes ops "
                f"{slot['op']!r} and {op!r} (collective order skew)"
            )
        if self.rank in slot["values"]:
            raise SchedError(
                f"rank {self.rank} contributed twice to allreduce round "
                f"{round_id} (collective order skew)"
            )
        slot["values"][self.rank] = value
        yield from job.barrier.wait()
        # ranks contribute in deterministic rank order regardless of
        # arrival order, so floating-point reductions are reproducible.
        # The reduction itself runs once per round (the first reader
        # computes, everyone else reads the cached result) — with n
        # ranks each sorting the contributions this was the engine's
        # only O(n^2 log n) step and dominated 64k-rank runs.
        if "result" not in slot:
            ordered = [slot["values"][r] for r in sorted(slot["values"])]
            slot["result"] = REDUCE_OPS[op](ordered)
        result = slot["result"]
        slot["read"] += 1
        if slot["read"] == job.nranks:
            del job._reduce_slots[round_id]
        return result

    # -- point-to-point -----------------------------------------------------
    def send(self, dest: int, *, nbytes: float = 0.0, tag: int = 0, payload=None):
        """Nonblocking modeled send: delivery after the link delay."""
        if not 0 <= dest < self.size:
            raise SchedError(f"send to rank {dest} outside job of {self.size}")
        self._log("send", peer=dest, tag=tag)
        seconds = self.job.p2p_seconds(self.rank, dest, nbytes)
        src = self.rank
        if seconds == 0.0:
            # mailbox fast path: a zero-latency send delivers directly
            # (same virtual instant) without a heap event — at 64k ranks
            # this halves the event count of exchange-heavy programs
            self.job._deliver(src, dest, tag, payload)
        else:
            self.engine.schedule(
                seconds, self.job._deliver_packed, (src, dest, tag, payload)
            )

    def recv(self, source: int, *, tag: int = 0) -> Generator:
        """Blocking receive; resumes with the payload at arrival time."""
        if not 0 <= source < self.size:
            raise SchedError(
                f"recv from rank {source} outside job of {self.size}"
            )
        self._log("recv", peer=source, tag=tag)
        key = (source, self.rank, tag)
        box = self.job._mailboxes.get(key)
        if box:
            return box.popleft()
        signal = self.engine.signal(f"recv{key}")
        self.job._recv_signals.setdefault(key, deque()).append(signal)
        payload = yield Wait(signal)
        return payload


@dataclass
class VspmdResult:
    """Outcome of one virtual SPMD job."""

    job: VirtualJob
    results: list
    rank_finish_seconds: list[float]
    elapsed_seconds: float

    @property
    def engine(self) -> Engine:
        return self.job.engine


def run_virtual_spmd(
    fn: Callable[[VirtualComm], Generator],
    nranks: int,
    *,
    engine: Engine | None = None,
    p2p_seconds: Callable[[int, int, float], float] | None = None,
) -> VspmdResult:
    """Run ``fn(comm)`` as ``nranks`` virtual processes; no threads.

    Raises :class:`~repro.util.errors.SchedError` if any rank is stuck
    when the event queue drains (virtual deadlock — e.g. mismatched
    barriers), mirroring the runtime behaviour the static
    MPI-COLLECTIVE-ORDER lint predicts.
    """
    job = VirtualJob(nranks, engine=engine, p2p_seconds=p2p_seconds)
    processes = [
        job.engine.spawn(
            f"vrank{rank}",
            fn(job.comm(rank)),
            lane=(f"vrank{rank}", "core"),
        )
        for rank in range(nranks)
    ]
    elapsed = job.engine.run()
    job.engine.check_quiescent()
    return VspmdResult(
        job=job,
        results=[p.result for p in processes],
        rank_finish_seconds=[float(p.finished_at) for p in processes],
        elapsed_seconds=elapsed,
    )


# ---------------------------------------------------------------------------
# static plan extraction (for repro.lint)
# ---------------------------------------------------------------------------


class _RecordingComm(VirtualComm):
    """Engine-less comm: logs ops, resolves every operation immediately.

    Used by :func:`record_plan` to symbolically execute a rank program;
    ``compute`` costs nothing, collectives do not synchronize, and
    ``allreduce`` returns its own contribution.
    """

    def __init__(self, job: VirtualJob, rank: int):
        # deliberately skip VirtualComm.__init__: no engine resources
        self.job = job
        self.rank = rank
        self.size = job.nranks

    def compute(self, seconds, *, label="compute", args=None):
        return
        yield  # pragma: no cover - makes this a generator

    def barrier(self):
        self._log("barrier", "barrier")
        return
        yield  # pragma: no cover

    def allreduce(self, value, op: str = "sum"):
        if op not in REDUCE_OPS:
            raise SchedError(
                f"unknown reduction {op!r}; supported: {sorted(REDUCE_OPS)}"
            )
        self._log("allreduce", f"allreduce[{op}]")
        return value
        yield  # pragma: no cover

    def send(self, dest, *, nbytes=0.0, tag=0, payload=None):
        self._log("send", peer=dest, tag=tag)

    def recv(self, source, *, tag: int = 0):
        self._log("recv", peer=source, tag=tag)
        return None
        yield  # pragma: no cover


def record_ops(
    fn: Callable[[VirtualComm], Generator], nranks: int
) -> list[list[VirtualOp]]:
    """Symbolically execute a rank program; returns per-rank op logs."""
    job = VirtualJob.__new__(VirtualJob)
    job.nranks = nranks
    job.op_log = [[] for _ in range(nranks)]
    for rank in range(nranks):
        comm = _RecordingComm(job, rank)
        gen = fn(comm)
        if isinstance(gen, Generator):
            for _ in gen:  # drive to exhaustion; commands are inert
                pass
    return job.op_log


def record_plan(fn: Callable[[VirtualComm], Generator], nranks: int):
    """The static :class:`~repro.lint.mpiplan.CommPlan` of a program.

    Point-to-point ops become plan sends/recvs (virtual sends are
    buffered and nonblocking-delivered, like the engine's), collectives
    become plan collectives — feeding the matching, deadlock, and
    collective-ordering checks.
    """
    from repro.lint.mpiplan import CommPlan

    plan = CommPlan(nranks)
    for rank, ops in enumerate(record_ops(fn, nranks)):
        for op in ops:
            if op.kind == "send":
                plan.send(rank, op.peer, op.tag, buffered=True)
            elif op.kind == "recv":
                plan.recv(rank, op.peer, op.tag)
            else:
                plan.collective(rank, op.detail)
    return plan
