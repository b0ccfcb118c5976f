"""NumPy epoch recurrences: the one schedule of virtual SPMD runs.

Between two output barriers every rank of a virtual run
(:mod:`repro.core.virtual`) runs the same program: an optional JIT,
``plotgap`` x (kernel, halo exchange), an optional BP5 write on the
node leader. One such window is an **epoch**, and
:func:`simulate_epoch` advances it for every rank of a slice at once
with the rank program's float operations, op for op: ``t = (t +
kernel) + comm`` per step, ``t = max(t + kernel, t + comm)`` with
overlap, ``end = start + seconds`` for a write and ``t = max(t, end)``
for the final join. With NIC contention the node's halos queue on its
ports and the epoch runs as one event loop per node, vectorized over
nodes (:func:`_contended_epoch`).

NumPy float64 elementwise arithmetic is IEEE double, so the times equal
the per-rank generator oracle's (``tests/oracles/virtual.py``) bit for
bit. Spans replay through an :class:`EpochEventQueue` as one columnar
:class:`~repro.observe.trace.SpanBatch` per epoch, and a
:class:`~repro.sched.profiler.SimProfiler` counts its samples from the
same intervals; untraced, unprofiled runs build neither. The schedule,
the contention tie order and the sample semantics are in
``docs/SCHEDULER.md``.
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

#: epoch event opcodes (a contended halo lands on its node's lane)
OP_JIT, OP_KERNEL, OP_HALO, OP_WRITE, OP_NIC_HALO = range(5)


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


#: folded-profile processes of a virtual run: ranks, overlapped halo
#: exchanges and overlapped BP5 drains (digit runs collapsed)
RANK, HALO, WRITER = "vrank*", "vrank*.halo", "node*.write*"
#: folded-profile states (see docs/SCHEDULER.md)
JIT_STATE = "delay(jit.compile)"
HALO_STATE = "delay(halo)"
NIC_WAIT = "acquire(node*.nic)"
HALO_JOIN = "join(vrank*.halo)"
BARRIER_WAIT = "wait(vspmd.barrier#*)"
WRITE_STATE = "delay(bp*.write)"
WRITE_JOIN = "join(node*.write*)"


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
    kernel_state: str = "delay(kernel)"  #: the kernel's profile state
    nics: int = 0  #: NIC ports per node; 0 = a private link per rank
    node_ranks: int = 1  #: ranks per node (the slice is node-aligned)
    #: contention: each rank's place in the barrier's release order (-1
    #: = the last arrival; None = the run's start, rank order), the
    #: release time, and the overlapped leaders held by their write
    roots: np.ndarray | None = None
    release: float = 0.0
    held: np.ndarray | None = None


@dataclass
class EpochResult:
    arrivals: np.ndarray  #: per-rank barrier-arrival times
    write_ends: np.ndarray | None  #: per-leader write end times
    events: int  #: engine-equivalent event count of the epoch
    #: contention: per-rank ``(chain hash, root, index)`` of the arrival
    keys: tuple | None = None
    chains: list | None = None  #: ``chains=True``: arrival cause times


def simulate_epoch(
    spec: EpochSpec, *, queue: EpochEventQueue | None = None, profile=None
) -> EpochResult:
    """Advance one epoch for every rank of the slice at once.

    Returns the per-rank arrival times at the closing barrier and the
    per-leader write ends the next epoch's join needs. A ``queue``
    records the epoch's spans for :func:`emit_epoch_spans`, a
    ``profile`` (:class:`~repro.sched.profiler.SimProfiler`) counts its
    samples, and ``spec.nics`` queues the halos on the nodes' NICs.
    """
    n = int(spec.starts.size)
    if spec.kernel.size != n or spec.comm.size != n or spec.ranks.size != n:
        raise SchedError(
            "epoch arrays disagree on rank count: "
            f"starts={n} kernel={spec.kernel.size} "
            f"comm={spec.comm.size} ranks={spec.ranks.size}"
        )
    if spec.nics:
        return _contended_epoch(spec, queue, profile)
    # counted as an engine would for one epoch run on its own: one
    # spawn event per rank, plus an unlabeled bridge delay for every
    # rank whose epoch starts after t=0
    events = n + int(np.count_nonzero(spec.starts))
    t, write_ends = _epoch_start(spec, queue, profile)
    if spec.jit_seconds > 0.0:
        events += n
    writes = spec.writes
    if write_ends is not None:
        if spec.overlap:
            # the leader spawns the drain and keeps stepping
            events += 2 * int(writes.index.size)
        else:
            t[writes.index] = write_ends
            events += int(writes.index.size)
    kernel = spec.kernel
    comm = spec.comm
    # `t` advances in place (a queue push copies the times it is given)
    if spec.overlap:
        halo_end = np.empty_like(t)
        for _ in range(spec.nsteps):
            if queue is not None:
                queue.push(OP_HALO, t, comm, spec.ranks)
                queue.push(OP_KERNEL, t, kernel, spec.ranks)
            # Join(halo): resume at whichever finishes later; both ends
            # are single additions from the common step start, exactly
            # as the engine schedules them
            np.add(t, comm, out=halo_end)
            if profile is not None:
                profile.add((RANK, spec.kernel_state), t, t + kernel)
                profile.add((HALO, HALO_STATE), t, halo_end)
                kernel_end = t + kernel
                profile.add((RANK, HALO_JOIN), kernel_end,
                            np.maximum(kernel_end, halo_end))
            t += kernel
            np.maximum(t, halo_end, out=t)
        events += 4 * n * spec.nsteps
    else:
        for _ in range(spec.nsteps):
            if queue is not None:
                queue.push(OP_KERNEL, t, kernel, spec.ranks)
            if profile is not None:
                profile.add((RANK, spec.kernel_state), t, t + kernel)
            t += kernel
            if queue is not None:
                queue.push(OP_HALO, t, comm, spec.ranks)
            if profile is not None:
                profile.add((RANK, HALO_STATE), t, t + comm)
            t += comm
        events += 2 * n * spec.nsteps
    if spec.final and spec.overlap and write_ends is not None:
        # Join(pending write) before the allreduce arrival
        joined = np.maximum(t[writes.index], write_ends)
        if profile is not None:
            profile.add((RANK, WRITE_JOIN), t[writes.index], joined)
        t[writes.index] = joined
        events += int(writes.index.size)
    return EpochResult(arrivals=t, write_ends=write_ends, events=events)


def _epoch_start(spec: EpochSpec, queue, profile):
    """Charge the JIT and start the leaders' writes.

    Returns the per-rank times after the JIT and the per-leader write
    ends (None without writes).
    """
    t = spec.starts.astype(np.float64, copy=True)
    if spec.jit_seconds > 0.0:
        if queue is not None:
            queue.push(OP_JIT, t, spec.jit_seconds, spec.ranks)
        if profile is not None:
            profile.add((RANK, JIT_STATE), t, t + spec.jit_seconds)
        t += spec.jit_seconds
    writes = spec.writes
    if writes is None or not writes.index.size:
        return t, None
    write_starts = t[writes.index]
    if queue is not None:
        queue.push(OP_WRITE, write_starts, writes.seconds, writes.nodes,
                   tag=writes.output_step)
    write_ends = write_starts + writes.seconds
    if profile is not None:
        writer = WRITER if spec.overlap else RANK
        profile.add((writer, WRITE_STATE), write_starts, write_ends)
    return t, write_ends


# -- NIC contention: one event loop per node, vectorized over nodes ---------

#: contended-loop event kinds; a rank's own program runs on slot ``j``,
#: its overlapped halo process on slot ``node_ranks + j``
_ROOT, _HELD, _START, _KERNEL, _JOIN, _SPAWN, _GRANT, _HALO = range(8)
#: loop-assigned sequence numbers start above every root ordinal
_SEQ_BASE = 1 << 40
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(h: np.ndarray, t) -> np.ndarray:
    """Fold event time ``t`` into chain hash ``h`` (splitmix64)."""
    x = (h * _GOLDEN) ^ np.asarray(t, dtype=np.float64).view(np.uint64)
    x ^= x >> 30
    x *= _MIX1
    x ^= x >> 27
    x *= _MIX2
    return x ^ (x >> 31)


def _contended_epoch(spec, queue, profile, *, chains: bool = False):
    """One epoch with the halos of each node queued on its NIC ports.

    Each node is an event loop over its ranks' pending events (at most
    one per rank program and one per overlapped halo), and every
    iteration processes, on every node at once, the node's earliest
    event in ``(time, seq)`` order. Events are numbered as the rank
    programs schedule them, so equal times break as their event heap
    breaks them (docs/SCHEDULER.md lists the order). Each arrival
    carries the hash of its chain of cause times, its root's place in
    the release order and its index on the node, for
    :func:`arrival_order`; ``chains=True`` also returns the chains.
    """
    n = int(spec.starts.size)
    rpn = spec.node_ranks
    nodes = -(-n // rpn)
    pad = nodes * rpn - n

    def grid(values, fill):
        values = np.asarray(values)
        return np.concatenate(
            (values, np.full(pad, fill, values.dtype))
        ).reshape(nodes, rpn)

    kernel = grid(spec.kernel.astype(np.float64), 0.0)
    comm = grid(spec.comm.astype(np.float64), 0.0)
    overlap = spec.overlap
    writes = spec.writes
    slots = 2 * rpn if overlap else rpn
    halo_slot = rpn if overlap else 0
    ev_t = np.full((nodes, slots), np.inf)
    ev_seq = np.zeros((nodes, slots), dtype=np.int64)
    ev_kind = np.zeros((nodes, slots), dtype=np.int8)
    # per pending event: chain hash (as int64 bits), root, parent event
    ev_key = np.zeros((nodes, slots, 3), dtype=np.int64)
    counter = np.full(nodes, _SEQ_BASE, dtype=np.int64)

    # roots: the event each rank's epoch starts in; it first waits out
    # the JIT or (blocking) its node's write
    starts = spec.starts.astype(np.float64)
    _, write_ends = _epoch_start(spec, queue, profile)
    delay = np.full(n, spec.jit_seconds)
    pending = np.full(n, -np.inf)  # the final join's write end per rank
    if write_ends is not None:
        if overlap:
            pending[writes.index] = write_ends
        else:
            delay[writes.index] = writes.seconds
    if spec.roots is None:
        # the run's start: every rank spawned at t=0, in rank order
        roots = spec.ranks.astype(np.int64)
        waiter = np.zeros(n, dtype=bool)
    else:
        roots = spec.roots.astype(np.int64)
        waiter = roots >= 0
    kind = np.full(n, _ROOT, dtype=np.int8)
    seq = roots.copy()
    if spec.held is not None:
        # a held leader resumes when its previous drain ends: that end
        # event was scheduled before anything of this epoch
        kind[spec.held] = _HELD
        seq[spec.held] = -2
        waiter &= ~spec.held
    # a waiter's resume was scheduled by the last arrival's event
    seed = np.zeros(n, dtype=np.uint64)
    seed[waiter] = _mix(seed[waiter], np.full(waiter.sum(), spec.release))
    ev_t[:, :rpn] = grid(starts, np.inf)
    ev_seq[:, :rpn] = grid(seq, 0)
    ev_kind[:, :rpn] = grid(kind, 0)
    ev_key[:, :rpn, 0] = grid(_mix(seed, starts).view(np.int64), 0)
    ev_key[:, :rpn, 1] = grid(roots, 0)
    ev_key[:, :rpn, 2] = -1 - grid(np.arange(n), 0)
    delay = grid(delay, 0.0)
    pending = grid(pending, -np.inf)

    steps = np.zeros((nodes, rpn), dtype=np.int64)
    halo_done = np.zeros((nodes, rpn), dtype=bool)
    joined = np.zeros((nodes, rpn), dtype=bool)
    asked = np.zeros((nodes, rpn))  # when the waiting halo asked
    kernel_end = np.zeros((nodes, rpn))
    ticket = np.full((nodes, rpn), np.inf)  # FIFO place while waiting
    tickets = np.zeros(nodes)
    busy = np.zeros(nodes, dtype=np.int64)
    arrivals = np.full((nodes, rpn), np.nan)
    # per arrival: its event's (chain hash, root, id) and node index
    arr_key = np.zeros((nodes, rpn, 3), dtype=np.int64)
    arr_index = np.zeros((nodes, rpn), dtype=np.int64)
    processed = np.zeros(nodes, dtype=np.int64)
    log_t: list[np.ndarray] = []  # with chains: per iteration, per node
    log_parent: list[np.ndarray] = []

    def record(key, lo, hi):
        if profile is not None:
            profile.add(key, lo, hi)

    def schedule(rows, slot, when, event_kind, parent):
        """Queue one event per row, numbered in scheduling order."""
        if not rows.size:
            return
        ev_t[rows, slot] = when
        ev_seq[rows, slot] = counter[rows]
        counter[rows] += 1
        ev_kind[rows, slot] = event_kind
        ev_key[rows, slot, 0] = _mix(
            parent[:, 0].view(np.uint64), when).view(np.int64)
        ev_key[rows, slot, 1:] = parent[:, 1:]

    def begin_step(rows, j, now, parent):
        """Start the next step, or arrive if the epoch is done."""
        if not rows.size:
            return
        more = steps[rows, j] < spec.nsteps
        done = ~more
        if done.any():
            arrive(rows[done], j[done], now[done], parent[done])
        rows, j, now, parent = rows[more], j[more], now[more], parent[more]
        k_end = now + kernel[rows, j]
        if overlap:
            schedule(rows, rpn + j, now, _SPAWN, parent)
            halo_done[rows, j] = False
            joined[rows, j] = False
        schedule(rows, j, k_end, _KERNEL, parent)
        if queue is not None:
            queue.push(OP_KERNEL, now, kernel[rows, j], base + rows * rpn + j)
        record((RANK, spec.kernel_state), now, k_end)

    def arrive(rows, j, now, parent):
        if spec.final and overlap:
            # Join(pending write) before the allreduce
            end = np.maximum(now, pending[rows, j])
            record((RANK, WRITE_JOIN), now, end)
            now = end
        arrivals[rows, j] = now
        arr_key[rows, j] = parent
        arr_index[rows, j] = processed[rows]

    def ask(rows, j, now, parent):
        """A halo asks for a port: served at once, or queued FIFO."""
        if not rows.size:
            return
        free = (busy[rows] < spec.nics) & ~np.isfinite(
            ticket[rows].min(axis=1))
        asked[rows, j] = now
        g = rows[free]
        busy[g] += 1
        grant(g, j[free], now[free], parent[free])
        q = rows[~free]
        ticket[q, j[~free]] = tickets[q]
        tickets[q] += 1

    def grant(rows, j, now, parent):
        if not rows.size:
            return
        end = now + comm[rows, j]
        schedule(rows, halo_slot + j, end, _HALO, parent)
        if queue is not None:
            queue.push(OP_NIC_HALO, now, comm[rows, j], base // rpn + rows)
        proc = HALO if overlap else RANK
        record((proc, NIC_WAIT), asked[rows, j], now)
        record((proc, HALO_STATE), now, end)

    base = int(spec.ranks[0]) if n else 0
    events = iteration = 0  # events processed, loop iterations
    while True:
        t_min = ev_t.min(axis=1)
        rows = np.flatnonzero(t_min < np.inf)
        if not rows.size:
            break
        now = t_min[rows]
        ties = np.where(ev_t[rows] == now[:, None], ev_seq[rows],
                        np.iinfo(np.int64).max)
        slot = ties.argmin(axis=1)
        kinds = ev_kind[rows, slot]
        if chains:
            log_t.append(np.full(nodes, np.nan))
            log_t[-1][rows] = now
            log_parent.append(np.full(nodes, -1, dtype=np.int64))
            log_parent[-1][rows] = ev_key[rows, slot, 2]
        # what this event hands its children: its hash, root and id
        parent = ev_key[rows, slot]
        parent[:, 2] = iteration * nodes + rows
        iteration += 1
        ev_t[rows, slot] = np.inf
        processed[rows] += 1
        events += int(rows.size)
        j = slot % rpn

        def take(mask):
            return rows[mask], j[mask], now[mask], parent[mask]

        halo_end = kinds == _HALO
        if halo_end.any():
            # the port goes to the head of the FIFO before the halo's
            # own continuation runs
            r, _, t, p = take(halo_end)
            busy[r] -= 1
            head = ticket[r].argmin(axis=1)
            has = np.isfinite(ticket[r, head])
            w, wj = r[has], head[has]
            ticket[w, wj] = np.inf
            busy[w] += 1
            schedule(w, halo_slot + wj, t[has], _GRANT, p[has])
        root = kinds == _ROOT
        later = root & (delay[rows, j] > 0.0)
        cont = (kinds == _START) | (root & ~later)
        r, jj, t, p = take(later)
        schedule(r, jj, t + delay[r, jj], _START, p)
        r, jj, t, p = take(kinds == _HELD)
        schedule(r, jj, t, _START, p)
        grant(*take(kinds == _GRANT))
        if overlap:
            ask(*take(kinds == _SPAWN))
            r, jj, t, p = take(halo_end)
            wake = joined[r, jj]
            schedule(r[wake], jj[wake], t[wake], _JOIN, p[wake])
            halo_done[r[~wake], jj[~wake]] = True
            kernel_ev = kinds == _KERNEL
            ready = halo_done[rows, j]
            r, jj, t, _ = take(kernel_ev)
            kernel_end[r, jj] = t
            r, jj, _, _ = take(kernel_ev & ~ready)
            joined[r, jj] = True
            rejoin = kinds == _JOIN
            r, jj, t, _ = take(rejoin)
            record((RANK, HALO_JOIN), kernel_end[r, jj], t)
            ends = rejoin | (kernel_ev & ready)
        else:
            ask(*take(kinds == _KERNEL))
            ends = halo_end
        r, jj, _, _ = take(ends)
        steps[r, jj] += 1
        begin_step(*take(ends | cont))

    # the padding of a partial last node sits at the end
    result = EpochResult(
        arrivals=arrivals.ravel()[:n],
        write_ends=write_ends,
        events=events,
        keys=(arr_key[..., 0].ravel()[:n], arr_key[..., 1].ravel()[:n],
              arr_index.ravel()[:n]),
    )
    if chains:
        times = np.concatenate(log_t)
        parents = np.concatenate(log_parent)
        result.chains = []
        for event in arr_key[..., 2].ravel()[:n].tolist():
            chain = []
            while event >= 0:
                chain.append(float(times[event]))
                event = int(parents[event])
            # a waiter's chain ends with the last arrival's event
            chain += [spec.release] * bool(waiter[-1 - event])
            result.chains.append(chain)
    return result


def replay_allreduce(values) -> float:
    """The closing allreduce (a sum) as the collective folds it.

    The epoch path never runs the allreduce as events; the parent adds
    the contributions left to right in rank order, as the collective
    does, so the result is the collective's bit for bit.
    """
    return sum(np.asarray(values, dtype=np.float64).tolist())


def emit_epoch_spans(
    queue: EpochEventQueue, tracer, *, kernel_name: str, backend: str
) -> int:
    """Replay the queued epoch events into ``tracer`` as one span batch.

    Spans are emitted in ``(when, seq)`` order through the tracer's
    columnar :meth:`~repro.observe.trace.Tracer.add_spans`. The span
    kinds replicate the generator engine's mirroring exactly — same
    names, categories, lanes, and args as the rank programs' modeled
    intervals, so the span *multiset* of an epoch run equals the
    generator oracle's. A contended halo lands on its node's lane
    (``node{n}``/``mpi``), the shared NIC's.
    """
    from repro.observe.trace import ID, SIM, TAG, SpanBatch, SpanKind

    events, seconds, tags = queue.sorted_events()
    if not events.size:
        return 0
    kinds = [None] * 5
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
    kinds[OP_NIC_HALO] = SpanKind(
        "halo", "mpi", SIM, "node", "mpi", process_id=True
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


def arrival_order(arrivals: np.ndarray, keys: tuple, chains_of) -> np.ndarray:
    """The order in which contended rank programs reach a barrier.

    Arrivals sort by time; at equal times by their chains of cause
    times (most recent first, a prefix first: the heap's order of the
    events that scheduled them), then by ``keys``' root and index.
    Chains are compared only among equal times whose hashes differ;
    ``chains_of(ranks)`` returns one chain per rank.
    """
    chain_hash, root, index = keys
    order = np.lexsort((index, root, chain_hash, arrivals))
    when, hashed = arrivals[order], chain_hash[order]
    new_time = np.r_[True, when[1:] != when[:-1]]
    new_pair = new_time | np.r_[True, hashed[1:] != hashed[:-1]]
    group = np.cumsum(new_time) - 1
    pairs = np.bincount(group[new_pair], minlength=group[-1] + 1)
    mixed = new_pair & (pairs[group] > 1)
    if not mixed.any():
        return order
    at = np.flatnonzero(mixed)  # one position per (time, hash) pair
    chains = chains_of(order[at])
    pair_id = np.cumsum(new_pair) - 1
    pair_rank = np.zeros(pair_id[-1] + 1, dtype=np.int64)
    for g in np.unique(group[at]).tolist():
        members = np.flatnonzero(group[at] == g).tolist()
        members.sort(key=lambda i: chains[i])
        pair_rank[pair_id[at[members]]] = np.arange(len(members))
    chain_rank = np.empty(arrivals.shape, dtype=np.int64)
    chain_rank[order] = pair_rank[pair_id]
    return np.lexsort((index, root, chain_rank, arrivals))
