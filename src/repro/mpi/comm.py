"""Communicators with MPI matching semantics.

A :class:`Job` is one SPMD program run: it owns the mailboxes of all
ranks. A :class:`Comm` is one rank's endpoint in one communicator
(message spaces of different communicators never mix — each carries a
context id, like MPI's hidden context). Point-to-point matching follows
MPI: a receive matches the earliest pending message with the same
context whose (source, tag) agree, with ``ANY_SOURCE``/``ANY_TAG``
wildcards, and messages between a (source, dest) pair are
non-overtaking.

Sends are buffered (the payload is copied at send time), so a blocking
``send`` returns immediately — the same eager behaviour the paper's
8 MB face messages get from Cray-MPICH under the rendezvous threshold
tuning used for host-memory exchanges.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.mpi.datatypes import Datatype, pack, unpack
from repro.mpi.request import Request
from repro.observe import trace as observe
from repro.util.errors import CommAbort, MPIError, TruncationError

ANY_SOURCE = -1
ANY_TAG = -1
#: Null process: sends/recvs to PROC_NULL are no-ops (MPI_PROC_NULL).
PROC_NULL = -2


@dataclass(frozen=True)
class Status:
    """Receive status: who sent, which tag, how many bytes."""

    source: int
    tag: int
    count_bytes: int


@dataclass
class Message:
    source: int
    tag: int
    context: tuple
    payload: Any
    seq: int


@dataclass
class _PostedRecv:
    source: int
    tag: int
    context: tuple
    request: Request
    seq: int

    def matches(self, msg: Message) -> bool:
        return (
            self.context == msg.context
            and self.source in (ANY_SOURCE, msg.source)
            and self.tag in (ANY_TAG, msg.tag)
        )


class _Mailbox:
    """Unmatched messages + posted receives for one rank."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.messages: list[Message] = []
        self.posted: list[_PostedRecv] = []
        self.seq = itertools.count()

    def deliver(self, msg: Message) -> None:
        with self.lock:
            for idx, posted in enumerate(self.posted):
                if posted.matches(msg):
                    del self.posted[idx]
                    posted.request._complete(msg)
                    return
            self.messages.append(msg)

    def post(self, posted: _PostedRecv) -> None:
        with self.lock:
            for idx, msg in enumerate(self.messages):
                if posted.matches(msg):
                    del self.messages[idx]
                    posted.request._complete(msg)
                    return
            self.posted.append(posted)

    def fail_all(self, error: BaseException) -> None:
        with self.lock:
            for posted in self.posted:
                posted.request._fail(error)
            self.posted.clear()


class Job:
    """Shared state of one SPMD run: mailboxes, abort flag, timeout."""

    def __init__(
        self, nranks: int, *, timeout: float = 60.0, collect_stats: bool = False
    ):
        if nranks <= 0:
            raise MPIError(f"job needs at least 1 rank, got {nranks}")
        self.nranks = nranks
        self.timeout = timeout
        self.mailboxes = [_Mailbox() for _ in range(nranks)]
        self._abort_error: BaseException | None = None
        self._send_seq = itertools.count()
        if collect_stats:
            from repro.mpi.stats import CommStats

            self.stats: "CommStats | None" = CommStats(nranks)
        else:
            self.stats = None

    def comm_world(self, rank: int) -> "Comm":
        return Comm(self, rank, comm_id=(0,))

    @property
    def aborted(self) -> bool:
        return self._abort_error is not None

    def abort(self, error: BaseException) -> None:
        """Kill the job: every blocked receive raises CommAbort."""
        if self._abort_error is None:
            self._abort_error = error
        abort = CommAbort(f"job aborted: {error!r}")
        for mailbox in self.mailboxes:
            mailbox.fail_all(abort)

    def check_abort(self) -> None:
        if self._abort_error is not None:
            raise CommAbort(f"job aborted: {self._abort_error!r}")


def _coll_span(comm: "Comm", name: str):
    """Wall-clock tracer span for one collective call (or a no-op)."""
    tracer = observe.active()
    if tracer is None:
        return nullcontext()
    tracer.metrics.counter("mpi.coll.calls", op=name).inc()
    return tracer.span(
        f"coll.{name}",
        cat="mpi",
        process=f"rank{comm._world_rank}",
        thread="mpi",
        args={"rank": comm.rank, "size": comm.size},
    )


def _freeze_payload(data: Any) -> tuple[Any, int]:
    """Copy a payload at send time (buffered send semantics); an array
    keeps its memory order, so a halo face keeps the Listing 3 order."""
    if isinstance(data, np.ndarray):
        copy = data.copy(order="K")
        return copy, copy.nbytes
    # generic objects ride through pickle — catches unpicklables and
    # prevents sender/receiver sharing mutable state.
    blob = pickle.dumps(data)
    return pickle.loads(blob), len(blob)


class Comm:
    """One rank's endpoint in one communicator."""

    def __init__(self, job: Job, rank: int, comm_id: tuple = (0,)):
        if not 0 <= rank < job.nranks:
            raise MPIError(f"rank {rank} outside job of {job.nranks} ranks")
        self.job = job
        self.rank = rank
        self.comm_id = comm_id
        self._coll_seq = itertools.count()
        self._derived = itertools.count(1)
        #: group-rank -> world-rank map; None for world communicators
        self._group: list[int] | None = None
        #: this endpoint's world rank (mailbox index)
        self._world_rank = rank

    @property
    def size(self) -> int:
        return len(self._group) if self._group is not None else self.job.nranks

    def _world(self, rank: int) -> int:
        """Translate a rank of this communicator to a world rank."""
        return self._group[rank] if self._group is not None else rank

    def _my_mailbox(self) -> "_Mailbox":
        return self.job.mailboxes[self._world_rank]

    def _adopt_group(self, parent: "Comm") -> None:
        """Inherit a parent communicator's group mapping (derived comms)."""
        self._group = parent._group
        self._world_rank = parent._world_rank

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> bool:
        """Validate a peer rank; returns False for PROC_NULL (no-op)."""
        if peer == PROC_NULL:
            return False
        if not 0 <= peer < self.size:
            raise MPIError(f"{what} to invalid rank {peer} (size {self.size})")
        return True

    def _context(self, kind: tuple) -> tuple:
        return (self.comm_id, *kind)

    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send of an array or picklable object."""
        self.isend(data, dest, tag).wait()

    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        request = Request("isend")
        if not self._check_peer(dest, "send"):
            request._complete(None)
            return request
        self.job.check_abort()
        tracer = observe.active()
        start = tracer.wall_now() if tracer is not None else 0.0
        payload, nbytes = _freeze_payload(data)
        if self.job.stats is not None:
            self.job.stats.record_p2p(self._world_rank, self._world(dest), nbytes)
        msg = Message(
            source=self.rank,
            tag=tag,
            context=self._context(("p2p",)),
            payload=payload,
            seq=next(self.job._send_seq),
        )
        self.job.mailboxes[self._world(dest)].deliver(msg)
        request._complete(None)
        if tracer is not None:
            src, dst = self._world_rank, self._world(dest)
            tracer.add_span(
                "p2p.send",
                cat="mpi",
                clock=observe.WALL,
                process=f"rank{src}",
                thread="mpi",
                start=start,
                seconds=tracer.wall_now() - start,
                args={"src": src, "dst": dst, "tag": tag, "bytes": nbytes},
            )
            tracer.metrics.counter("mpi.p2p.messages", rank=src).inc()
            tracer.metrics.counter("mpi.p2p.bytes", rank=src).inc(nbytes)
        return request

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        request = Request("irecv")
        if source == PROC_NULL:
            request._complete(Message(PROC_NULL, tag, (), None, -1))
            return request
        if source != ANY_SOURCE:
            self._check_peer(source, "recv")
        self.job.check_abort()
        mailbox = self._my_mailbox()
        posted = _PostedRecv(
            source=source,
            tag=tag,
            context=self._context(("p2p",)),
            request=request,
            seq=next(mailbox.seq),
        )
        mailbox.post(posted)
        return request

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        timeout: float | None = None,
    ) -> tuple[Any, Status]:
        """Blocking receive; returns (payload, status)."""
        tracer = observe.active()
        start = tracer.wall_now() if tracer is not None else 0.0
        msg = self.irecv(source, tag).wait(timeout or self.job.timeout)
        nbytes = msg.payload.nbytes if isinstance(msg.payload, np.ndarray) else 0
        if tracer is not None:
            tracer.add_span(
                "p2p.recv",
                cat="mpi",
                clock=observe.WALL,
                process=f"rank{self._world_rank}",
                thread="mpi",
                start=start,
                seconds=tracer.wall_now() - start,
                args={
                    "src": msg.source,
                    "dst": self.rank,
                    "tag": msg.tag,
                    "bytes": nbytes,
                },
            )
        return msg.payload, Status(msg.source, msg.tag, nbytes)

    def recv_into(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        timeout: float | None = None,
    ) -> Status:
        """Blocking receive into a preallocated buffer (MPI_Recv).

        Raises :class:`TruncationError` if the matched message is larger
        than ``buf`` (MPI_ERR_TRUNCATE); shorter messages fill a prefix,
        as MPI allows.
        """
        payload, status = self.recv(source, tag, timeout=timeout)
        if not isinstance(payload, np.ndarray):
            raise MPIError(
                f"recv_into matched an object message (tag {status.tag}); "
                "use recv() for objects"
            )
        if payload.nbytes > buf.nbytes:
            raise TruncationError(
                f"message of {payload.nbytes} B from rank {status.source} "
                f"truncated: receive buffer holds {buf.nbytes} B"
            )
        flat = buf.reshape(-1, order="F" if buf.flags.f_contiguous and buf.ndim > 1 else "C")
        flat[: payload.size] = payload.reshape(-1)
        return status

    def sendrecv(
        self,
        senddata: Any,
        dest: int,
        recvsource: int,
        *,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> tuple[Any, Status | None]:
        """Combined send+receive (deadlock-free halo exchange step).

        Either side may be PROC_NULL: the send becomes a no-op and/or
        the receive returns ``(None, None)``.
        """
        self.isend(senddata, dest, sendtag)
        if recvsource == PROC_NULL:
            return None, None
        return self.recv(recvsource, recvtag)

    # -- Listing 3 pattern: strided face exchange ------------------------
    def send_face(
        self,
        arr: np.ndarray,
        datatype: Datatype,
        dest: int,
        tag: int = 0,
        *,
        offset_elements: int = 0,
    ) -> None:
        """Pack a strided face through ``datatype`` and send it."""
        if dest == PROC_NULL:
            return
        self.send(pack(arr, datatype, offset_elements=offset_elements), dest, tag)

    def recv_face(
        self,
        arr: np.ndarray,
        datatype: Datatype,
        source: int,
        tag: int = ANY_TAG,
        *,
        offset_elements: int = 0,
    ) -> Status | None:
        """Receive a face and unpack it through ``datatype``."""
        if source == PROC_NULL:
            return None
        wire, status = self.recv(source, tag)
        if not isinstance(wire, np.ndarray):
            raise MPIError("recv_face matched a non-array message")
        if wire.size != datatype.size_elements:
            raise TruncationError(
                f"face message has {wire.size} elements, datatype describes "
                f"{datatype.size_elements}"
            )
        unpack(arr, datatype, wire, offset_elements=offset_elements)
        return status

    # ------------------------------------------------------------------
    # collectives (implementations in repro.mpi.collectives)
    # ------------------------------------------------------------------
    def _coll_context(self, name: str) -> tuple:
        return self._context(("coll", name, next(self._coll_seq)))

    def _coll_send(self, context: tuple, data: Any, dest: int) -> None:
        self.job.check_abort()
        payload, nbytes = _freeze_payload(data)
        if self.job.stats is not None:
            # context = (comm_id, "coll", name, seq[, round]) — index by name
            name = context[2] if len(context) > 2 else "coll"
            self.job.stats.record_coll(str(name), nbytes)
        self.job.mailboxes[self._world(dest)].deliver(
            Message(self.rank, 0, context, payload, next(self.job._send_seq))
        )

    def _coll_recv(self, context: tuple, source: int) -> Any:
        self.job.check_abort()
        request = Request("coll-recv")
        mailbox = self._my_mailbox()
        mailbox.post(
            _PostedRecv(source, ANY_TAG, context, request, next(mailbox.seq))
        )
        return request.wait(self.job.timeout).payload

    def barrier(self) -> None:
        from repro.mpi.collectives import barrier

        with _coll_span(self, "barrier"):
            barrier(self)

    def bcast(self, data: Any = None, root: int = 0) -> Any:
        from repro.mpi.collectives import bcast

        with _coll_span(self, "bcast"):
            return bcast(self, data, root)

    def reduce(self, value: Any, op="sum", root: int = 0) -> Any:
        from repro.mpi.collectives import reduce

        with _coll_span(self, "reduce"):
            return reduce(self, value, op, root)

    def allreduce(self, value: Any, op="sum") -> Any:
        from repro.mpi.collectives import allreduce

        with _coll_span(self, "allreduce"):
            return allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0):
        from repro.mpi.collectives import gather

        with _coll_span(self, "gather"):
            return gather(self, value, root)

    def allgather(self, value: Any) -> list:
        from repro.mpi.collectives import allgather

        with _coll_span(self, "allgather"):
            return allgather(self, value)

    def scatter(self, values, root: int = 0):
        from repro.mpi.collectives import scatter

        with _coll_span(self, "scatter"):
            return scatter(self, values, root)

    def alltoall(self, values) -> list:
        from repro.mpi.collectives import alltoall

        with _coll_span(self, "alltoall"):
            return alltoall(self, values)

    # ------------------------------------------------------------------
    # derived communicators
    # ------------------------------------------------------------------
    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
        *, timeout: float | None = None,
    ) -> Status:
        """Block until a matching message is pending; do not consume it.

        MPI_Probe: the returned status lets the caller size a receive
        buffer before posting the actual receive.
        """
        deadline_timeout = timeout if timeout is not None else self.job.timeout
        import time as _time

        deadline = _time.monotonic() + deadline_timeout
        mailbox = self._my_mailbox()
        context = self._context(("p2p",))
        probe_posted = _PostedRecv(source, tag, context, Request("probe"), 0)
        while True:
            self.job.check_abort()
            with mailbox.lock:
                for msg in mailbox.messages:
                    if probe_posted.matches(msg):
                        nbytes = (
                            msg.payload.nbytes
                            if isinstance(msg.payload, np.ndarray)
                            else 0
                        )
                        return Status(msg.source, msg.tag, nbytes)
            if _time.monotonic() > deadline:
                raise MPIError(
                    f"probe(source={source}, tag={tag}) timed out after "
                    f"{deadline_timeout}s"
                )
            _time.sleep(0.0005)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Nonblocking probe: a matching pending message's status, or None."""
        mailbox = self._my_mailbox()
        context = self._context(("p2p",))
        probe_posted = _PostedRecv(source, tag, context, Request("iprobe"), 0)
        with mailbox.lock:
            for msg in mailbox.messages:
                if probe_posted.matches(msg):
                    nbytes = (
                        msg.payload.nbytes
                        if isinstance(msg.payload, np.ndarray)
                        else 0
                    )
                    return Status(msg.source, msg.tag, nbytes)
        return None

    def scan(self, value: Any, op="sum") -> Any:
        from repro.mpi.collectives import scan

        with _coll_span(self, "scan"):
            return scan(self, value, op)

    def exscan(self, value: Any, op="sum") -> Any:
        from repro.mpi.collectives import exscan

        with _coll_span(self, "exscan"):
            return exscan(self, value, op)

    def reduce_scatter(self, values, op="sum"):
        from repro.mpi.collectives import reduce_scatter

        with _coll_span(self, "reduce_scatter"):
            return reduce_scatter(self, values, op)

    def split(self, color: int, key: int | None = None) -> "Comm | None":
        """MPI_Comm_split: partition ranks into sub-communicators.

        Collective. Ranks passing the same ``color`` land in the same
        sub-communicator, ordered by ``key`` (default: world rank).
        ``color=None`` (MPI_UNDEFINED) returns None for that rank.
        """
        key = self.rank if key is None else key
        table = self.allgather((color, key, self.rank))
        if color is None:
            next(self._derived)  # stay in lockstep with members
            return None
        members = sorted((k, r) for c, k, r in table if c == color)
        ranks = [r for _, r in members]
        new_rank = ranks.index(self.rank)
        # context id derivation: all ranks derive in lockstep; fold the
        # color in so different sub-communicators never share a context
        sub_id = self._derive_id() + (color,)
        world_ranks = [self._world(r) for r in ranks]
        return SplitComm(self.job, self._world_rank, sub_id, world_ranks, new_rank)

    def dup(self) -> "Comm":
        """Duplicate the communicator with a fresh context (MPI_Comm_dup).

        Collective: every rank must call it, in the same order relative
        to other communicator constructions. Libraries (e.g. the BP5
        engines) dup the caller's communicator so their internal traffic
        can never match application messages.
        """
        twin = Comm(self.job, self.rank, comm_id=self._derive_id())
        twin._adopt_group(self)
        return twin

    def create_cart(self, dims, periods=None) -> "CartComm":
        from repro.mpi.cart import CartComm

        return CartComm(self, dims, periods)

    def _derive_id(self) -> tuple:
        """Context id for the next derived communicator.

        Valid because MPI requires all ranks to create communicators in
        the same order, so per-rank counters agree.
        """
        return self.comm_id + (next(self._derived),)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Comm(rank={self.rank}, size={self.size}, id={self.comm_id})"


class SplitComm(Comm):
    """A sub-communicator produced by :meth:`Comm.split`."""

    def __init__(
        self,
        job: Job,
        world_rank: int,
        comm_id: tuple,
        world_ranks: list[int],
        group_rank: int,
    ):
        super().__init__(job, group_rank, comm_id=comm_id)
        self._group = list(world_ranks)
        self._world_rank = world_rank

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SplitComm(rank={self.rank}/{self.size}, "
            f"world={self._world_rank}, id={self.comm_id})"
        )
