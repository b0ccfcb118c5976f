"""MPI plan checker: deadlocks, matching, wildcard nondeterminism.

A :class:`CommPlan` is the *static* send/recv graph of one
communication phase — each rank's point-to-point operations in program
order, before anything executes. The checker runs two analyses:

1. **Matching** — group sends and receives by ``(source, dest, tag)``
   edges: a send with no receive is **MPI-UNMATCHED-SEND** (refined to
   **MPI-TAG-MISMATCH** when the same peer pair exists under another
   tag), more sends than receives on one edge is **MPI-DUP-MATCH**,
   a receive nothing feeds is **MPI-UNMATCHED-RECV**, and wildcard
   receives are flagged **MPI-WILDCARD** (they match whatever arrives
   first — nondeterministic with more than one candidate).

2. **Deadlock** — an abstract scheduler advances every rank through
   its program: nonblocking operations always complete (they only
   post), buffered sends complete eagerly (the repo's sends copy at
   send time, like Cray-MPICH under the eager threshold), unbuffered
   sends rendezvous with a posted receive, and blocking receives wait
   for a matching in-flight message. When no rank can advance, the
   ranks stuck on blocking operations form the blocking cycle reported
   by **MPI-DEADLOCK** — exactly the mismatched-nonblocking-halo hazard
   the paper's Listing 3 exchange must avoid.

3. **Collective ordering** — every rank must issue the same sequence of
   collectives (barriers, reductions) in the same order; the first rank
   whose sequence diverges from rank 0's is reported as
   **MPI-COLLECTIVE-ORDER**. Plans are built with :class:`CommPlan`'s
   ``send``/``recv``/``collective``; the tests also feed it rank
   programs symbolically executed by the oracle's ``record_plan``
   (``tests/oracles/vspmd.py``).

:func:`halo_exchange_plan` collects the per-rank plans that
:func:`repro.core.exchange.exchange_ghosts` executes, built from
``dims``/``periods`` by :func:`repro.core.exchange.exchange_plan` — so
``grayscott lint`` verifies the production plan itself, not a copy of
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.domain import LocalDomain
from repro.core.exchange import exchange_plan
from repro.lint import diagnostics as D
from repro.lint.diagnostics import LintReport
from repro.mpi.cart import cart_coords
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.util.errors import LintError


@dataclass(frozen=True)
class PlanOp:
    """One operation of one rank's program (point-to-point or collective)."""

    kind: str  # "send" | "recv" | "coll"
    rank: int
    peer: int  # dest for sends; source (or ANY_SOURCE) for recvs
    tag: int  # ANY_TAG allowed on recvs
    blocking: bool = True
    #: sends only: buffered (eager, completes immediately) vs
    #: rendezvous (completes when the matching receive is posted)
    buffered: bool = True
    where: str = ""  # human-readable origin, e.g. "axis0/+1"
    #: collectives only: the collective's name, e.g. "barrier",
    #: "allreduce[sum]" — ordering is checked across ranks by name
    coll: str = ""

    def describe(self) -> str:
        origin = f" [{self.where}]" if self.where else ""
        if self.kind == "coll":
            return f"rank {self.rank}: {self.coll}(){origin}"
        peer = {ANY_SOURCE: "ANY_SOURCE"}.get(self.peer, str(self.peer))
        tag = {ANY_TAG: "ANY_TAG"}.get(self.tag, str(self.tag))
        mode = "" if self.blocking else "i"
        if self.kind == "send":
            return f"rank {self.rank}: {mode}send(dest={peer}, tag={tag}){origin}"
        return f"rank {self.rank}: {mode}recv(source={peer}, tag={tag}){origin}"


@dataclass
class CommPlan:
    """Per-rank programs of one communication phase."""

    nranks: int
    ops: list[PlanOp] = field(default_factory=list)
    #: faces filled by a local copy instead of a message (self-neighbours)
    local_copies: int = 0

    def add(self, op: PlanOp) -> "CommPlan":
        if not 0 <= op.rank < self.nranks:
            raise LintError(
                f"plan op on rank {op.rank} outside communicator of "
                f"size {self.nranks}"
            )
        if op.kind == "coll":
            if not op.coll:
                raise LintError("collective plan ops need a name")
            self.ops.append(op)
            return self
        if op.peer != PROC_NULL:
            valid_peer = (
                0 <= op.peer < self.nranks
                or (op.kind == "recv" and op.peer == ANY_SOURCE)
            )
            if not valid_peer:
                raise LintError(
                    f"plan op peer {op.peer} outside communicator of "
                    f"size {self.nranks}"
                )
        if op.peer != PROC_NULL:  # PROC_NULL ops are no-ops, drop them
            self.ops.append(op)
        return self

    def send(self, rank: int, dest: int, tag: int, **kw) -> "CommPlan":
        return self.add(PlanOp("send", rank, dest, tag, **kw))

    def recv(self, rank: int, source: int, tag: int, **kw) -> "CommPlan":
        return self.add(PlanOp("recv", rank, source, tag, **kw))

    def collective(self, rank: int, name: str, **kw) -> "CommPlan":
        """Append a collective call (barrier, reduction, ...) to a rank."""
        return self.add(PlanOp("coll", rank, PROC_NULL, 0, coll=name, **kw))

    def program(self, rank: int) -> list[PlanOp]:
        return [op for op in self.ops if op.rank == rank]


def halo_exchange_plan(dims, periods=None) -> CommPlan:
    """The ghost exchange every rank runs, as one plan.

    Collects each rank's :func:`repro.core.exchange.exchange_plan` (the
    plan :func:`~repro.core.exchange.exchange_ghosts` executes) and keeps
    its message ops: ``isend`` is a nonblocking buffered send, ``recv``
    a blocking receive. Self-neighbour faces are local copies, counted
    in ``local_copies``; walls send nothing. Message sizes do not matter
    here, so every rank owns one cell per axis.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise LintError(f"cartesian dims must be 3 positive extents: {dims}")
    periods = tuple(bool(p) for p in (periods or (True,) * len(dims)))
    if len(periods) != len(dims):
        raise LintError(f"periods {periods} do not match dims {dims}")
    plan = CommPlan(math.prod(dims))
    for rank in range(plan.nranks):
        domain = LocalDomain.for_coords(dims, dims, cart_coords(rank, dims))
        for op in exchange_plan(domain, periods):
            if op.kind in _MESSAGE_KINDS:
                kind, blocking = _MESSAGE_KINDS[op.kind]
                plan.add(PlanOp(kind, rank, op.peer, op.tag,
                                blocking=blocking,
                                where=f"axis{op.axis}/{op.side:+d}"))
            elif op.kind == "copy":
                plan.local_copies += 1
    return plan


#: runtime exchange op -> (plan op kind, blocking)
_MESSAGE_KINDS = {
    "isend": ("send", False),
    "recv": ("recv", True),
}


# -- the checker ------------------------------------------------------------


def check_plan(plan: CommPlan, *, report: LintReport | None = None) -> LintReport:
    """Run matching + deadlock + collective-ordering analysis over one plan."""
    report = report if report is not None else LintReport()
    _check_matching(plan, report)
    _check_deadlock(plan, report)
    _check_collective_order(plan, report)
    report.record_fact("mpi.plan.nranks", plan.nranks)
    report.record_fact("mpi.plan.messages", sum(
        1 for op in plan.ops if op.kind == "send"
    ))
    report.record_fact("mpi.plan.collectives", sum(
        1 for op in plan.ops if op.kind == "coll"
    ))
    report.record_fact("mpi.plan.local_copies", plan.local_copies)
    return report


def _check_matching(plan: CommPlan, report: LintReport) -> None:
    sends: dict[tuple, list[PlanOp]] = {}
    recvs: dict[tuple, list[PlanOp]] = {}
    wildcards: list[PlanOp] = []
    for op in plan.ops:
        if op.kind == "coll":
            continue
        if op.kind == "send":
            sends.setdefault((op.rank, op.peer, op.tag), []).append(op)
        elif op.peer == ANY_SOURCE or op.tag == ANY_TAG:
            wildcards.append(op)
        else:
            recvs.setdefault((op.peer, op.rank, op.tag), []).append(op)

    for op in wildcards:
        report.add(
            D.MPI_WILDCARD, f"rank{op.rank}",
            f"{op.describe()} matches in arrival order",
            hint="name the source and tag explicitly for deterministic "
                 "halo exchanges",
        )

    def _wildcard_accepts(op: PlanOp, src: int, tag: int) -> bool:
        return (op.peer in (ANY_SOURCE, src)) and (op.tag in (ANY_TAG, tag))

    for key in sorted(set(sends) | set(recvs)):
        src, dst, tag = key
        n_send = len(sends.get(key, ()))
        n_recv = len(recvs.get(key, ()))
        n_recv += sum(
            1 for op in wildcards if op.rank == dst and _wildcard_accepts(op, src, tag)
        )
        if n_send > n_recv:
            example = sends[key][0]
            if n_recv > 0:
                report.add(
                    D.MPI_DUP_MATCH, f"rank{src}",
                    f"{n_send} sends but only {n_recv} receives on "
                    f"edge {src}->{dst} tag {tag} ({example.describe()})",
                    hint="each message needs exactly one receive",
                )
            else:
                other_tags = sorted(
                    t for (s, d, t), ops in recvs.items()
                    if s == src and d == dst and t != tag
                )
                if other_tags:
                    report.add(
                        D.MPI_TAG_MISMATCH, f"rank{src}",
                        f"{example.describe()} has no matching receive, but "
                        f"rank {dst} receives from {src} under tag(s) "
                        f"{other_tags}",
                        hint="align the send and receive tag maps",
                    )
                else:
                    report.add(
                        D.MPI_UNMATCHED_SEND, f"rank{src}",
                        f"{example.describe()} is never received "
                        f"by rank {dst}",
                        hint="post a matching receive or drop the send",
                    )
        elif n_recv > n_send and key in recvs:
            example = recvs[key][0]
            missing = n_recv - n_send
            other_tags = sorted(
                t for (s, d, t), ops in sends.items()
                if s == src and d == dst and t != tag
                and len(ops) > len(recvs.get((s, d, t), ()))
            )
            if n_send == 0 and other_tags:
                report.add(
                    D.MPI_TAG_MISMATCH, f"rank{dst}",
                    f"{example.describe()} has no matching send, but rank "
                    f"{src} sends to {dst} under tag(s) {other_tags}",
                    hint="align the send and receive tag maps",
                )
            else:
                report.add(
                    D.MPI_UNMATCHED_RECV, f"rank{dst}",
                    f"{missing} receive(s) on edge {src}->{dst} tag {tag} "
                    f"never get a message ({example.describe()})",
                    hint="every posted receive must be fed by a send",
                )


def _check_deadlock(plan: CommPlan, report: LintReport) -> None:
    """Abstract execution: advance ranks until quiescent or stuck."""
    programs = {rank: plan.program(rank) for rank in range(plan.nranks)}
    pc = {rank: 0 for rank in range(plan.nranks)}
    in_flight: dict[tuple, int] = {}  # (src, dst, tag) -> count
    posted: list[PlanOp] = []  # nonblocking receives awaiting messages

    def _try_consume(rank: int, source: int, tag: int) -> bool:
        for (src, dst, t), count in sorted(in_flight.items()):
            if count <= 0 or dst != rank:
                continue
            if source in (ANY_SOURCE, src) and tag in (ANY_TAG, t):
                in_flight[(src, dst, t)] -= 1
                return True
        return False

    def _recv_posted_at(rank: int, tag: int, source: int) -> bool:
        """Is a matching receive posted or imminent at ``rank``?"""
        for op in posted:
            if op.rank == rank and op.peer in (ANY_SOURCE, source) \
                    and op.tag in (ANY_TAG, tag):
                return True
        program = programs[rank]
        if pc[rank] < len(program):
            op = program[pc[rank]]
            return (
                op.kind == "recv"
                and op.peer in (ANY_SOURCE, source)
                and op.tag in (ANY_TAG, tag)
            )
        return False

    progress = True
    while progress:
        progress = False
        # drain posted nonblocking receives first (arrival order)
        for op in list(posted):
            if _try_consume(op.rank, op.peer, op.tag):
                posted.remove(op)
                progress = True
        for rank in range(plan.nranks):
            program = programs[rank]
            while pc[rank] < len(program):
                op = program[pc[rank]]
                if op.kind == "coll":
                    # cross-rank collective blocking is analyzed by the
                    # ordering check; the abstract scheduler passes through
                    pc[rank] += 1
                    progress = True
                    continue
                if op.kind == "send":
                    if op.buffered or not op.blocking:
                        pass  # eager: completes immediately
                    elif not _recv_posted_at(op.peer, op.tag, rank):
                        break  # rendezvous send blocks
                    key = (rank, op.peer, op.tag)
                    in_flight[key] = in_flight.get(key, 0) + 1
                elif not op.blocking:
                    posted.append(op)  # irecv: post and move on
                elif not _try_consume(rank, op.peer, op.tag):
                    break  # blocking recv with nothing to match
                pc[rank] += 1
                progress = True

    stuck = {
        rank: programs[rank][pc[rank]]
        for rank in range(plan.nranks)
        if pc[rank] < len(programs[rank])
    }
    if not stuck:
        return
    chain = "; ".join(op.describe() for _, op in sorted(stuck.items()))
    report.add(
        D.MPI_DEADLOCK, f"ranks {sorted(stuck)}",
        f"{len(stuck)} rank(s) block forever: {chain}",
        hint="break the cycle: post receives before blocking sends, or "
             "send nonblocking (isend) as the Listing 3 exchange does",
    )


def _check_collective_order(plan: CommPlan, report: LintReport) -> None:
    """Every rank must issue the same collectives in the same order.

    Rank 0's sequence is the reference; each other rank is compared
    against it and the first divergence (different collective, or a
    shorter/longer sequence) is reported. A skewed order hangs or
    corrupts a real job — e.g. rank 0 calling ``allreduce`` while rank 1
    sits in ``barrier`` pairs the wrong collectives with each other.
    """
    sequences = {
        rank: [op for op in plan.program(rank) if op.kind == "coll"]
        for rank in range(plan.nranks)
    }
    if not any(sequences.values()):
        return
    reference = sequences[0]
    for rank in range(1, plan.nranks):
        sequence = sequences[rank]
        for pos, (ref, got) in enumerate(zip(reference, sequence)):
            if ref.coll != got.coll:
                report.add(
                    D.MPI_COLLECTIVE_ORDER, f"rank{rank}",
                    f"collective #{pos} diverges from rank 0: rank 0 calls "
                    f"{ref.coll}() but {got.describe()}",
                    hint="issue collectives in the same order on every rank",
                )
                break
        else:
            if len(sequence) != len(reference):
                short, long_ = sorted(
                    [(len(sequence), rank), (len(reference), 0)]
                )
                extra = (reference if long_[1] == 0 else sequence)[short[0]]
                report.add(
                    D.MPI_COLLECTIVE_ORDER, f"rank{rank}",
                    f"rank {rank} issues {len(sequence)} collective(s) but "
                    f"rank 0 issues {len(reference)}; rank {long_[1]} is "
                    f"alone in {extra.coll}() at position {short[0]}",
                    hint="every rank must participate in every collective",
                )
