"""Virtual SPMD mode: modeled Frontier-scale runs of a settings file.

The thread-backed executor (:mod:`repro.mpi.executor`) runs the *real*
solver but tops out at a few dozen ranks. This module runs the same
workflow shape — JIT, then ``steps`` x (kernel, halo exchange), with a
barrier + BP5 node-aggregated write every ``plotgap`` steps — as
**virtual ranks** advanced as NumPy recurrences (:mod:`repro.sched`),
with every duration drawn from the calibrated performance models:

- kernel launches from :func:`repro.gpu.proxy.grayscott_launch_cost`,
  with the persistent per-rank jitter of :mod:`repro.mpi.netmodel`;
- halo-exchange costs from
  :class:`~repro.mpi.netmodel.HaloExchangeModel`, on a private link
  per rank or (``nic_contention``) queued on the node's shared NICs;
- subfile writes from :class:`~repro.adios.fsmodel.LustreModel`, one
  aggregator per node.

The settings' grid is the **per-rank local block** (the paper's weak
scaling: 1024^3 cells per GCD at every job size). ``overlap=True``
models the nonblocking exchange and BP5 async drain: halo traffic rides
the NIC while the kernel occupies the GCD, and the write of one output
step streams while the next solve steps run. Ranks advance epoch by
epoch as NumPy arrays (:mod:`repro.sched.vector`); when an
:mod:`repro.observe` tracer is active every modeled interval lands in
the exported Perfetto timeline, and a
:class:`~repro.sched.profiler.SimProfiler` counts folded-stack samples
from the same intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.frontier import FRONTIER, MachineSpec
from repro.core.settings import GrayScottSettings
from repro.util.errors import ConfigError


@dataclass
class VirtualRunResult:
    """Outcome of one virtual SPMD run (all times are modeled seconds)."""

    nranks: int
    nnodes: int
    steps: int
    output_steps: int
    backend: str
    overlap: bool
    elapsed_seconds: float
    rank_finish_seconds: np.ndarray
    kernel_seconds_per_step: float
    comm_seconds_mean: float
    jit_seconds: float
    events_processed: int
    collectives_per_rank: int
    results: list

    @property
    def variability(self) -> float:
        """(max - min) / mean over rank finish times (the Fig. 6 metric)."""
        finish = self.rank_finish_seconds
        return float((finish.max() - finish.min()) / finish.mean())

    def render(self) -> str:
        from repro.core import present

        return present.render_virtual_result(self)


class VirtualWorkflow:
    """Event-driven "virtual SPMD" execution of a settings file.

    Ranks are placed block-wise (the ``Placement`` default): node ``n``
    holds ranks ``[n * rpn, (n + 1) * rpn)``, its lowest rank leading
    the node's BP5 writes.

    >>> from repro.core.settings import GrayScottSettings
    >>> s = GrayScottSettings(L=64, steps=4, plotgap=2, backend="julia")
    >>> result = VirtualWorkflow(s, nranks=16).run()
    >>> result.nranks, result.output_steps
    (16, 2)
    """

    def __init__(
        self,
        settings: GrayScottSettings,
        *,
        nranks: int | None = None,
        overlap: bool = False,
        nic_contention: bool = False,
        machine: MachineSpec = FRONTIER,
        tracer=None,
        profiler=None,
    ):
        from repro.cluster.frontier import extrapolated_machine
        from repro.cluster.placement import Placement
        from repro.mpi.cart import dims_create

        if settings.backend == "cpu":
            raise ConfigError(
                "virtual SPMD mode models GCD occupancy; pick a GPU "
                "backend (julia/hip) in the settings"
            )
        self.settings = settings
        self.nranks = nranks if nranks is not None else max(settings.ranks, 1)
        if self.nranks < 1:
            raise ConfigError(f"virtual run needs >= 1 rank, got {self.nranks}")
        self.overlap = overlap
        #: model the node's Slingshot ports as a shared capacity-limited
        #: resource: the node's 8 ranks queue on 4 NICs instead of each
        #: owning a private link (opt-in; changes modeled times)
        self.nic_contention = nic_contention
        #: beyond the real machine, extrapolate: a 1,048,576-rank run
        #: models a Frontier-like machine with enough nodes (per-node
        #: characteristics unchanged)
        nodes_needed = machine.nodes_for_ranks(self.nranks)
        if nodes_needed > machine.nodes:
            machine = extrapolated_machine(machine, nodes=nodes_needed)
        self.machine = machine
        self.tracer = tracer
        #: a :class:`repro.sched.SimProfiler` counting the rank states
        #: at virtual-time intervals (any ``jobs``)
        self.profiler = profiler
        self.placement = Placement(self.nranks, machine)
        self.cart_dims = dims_create(self.nranks, 3)
        #: weak scaling: the settings' grid is each rank's local block
        self.local_shape = settings.shape
        #: bytes per cell of one field, for halo faces and output alike
        self.itemsize = np.dtype(settings.precision).itemsize

    # -- modeled ingredients ------------------------------------------------
    def _kernel_jitter(self) -> np.ndarray:
        from repro.mpi.netmodel import noise_sigma
        from repro.util.rngs import RngStream

        stream = RngStream(self.settings.seed, ("virtual",))
        gen = stream.generator("jitter", self.nranks)
        return gen.normal(0.0, noise_sigma(self.nranks), size=self.nranks)

    def _comm_seconds(self) -> np.ndarray:
        return self._comm_slice(0, self.nranks)

    def _comm_slice(self, lo: int, hi: int) -> np.ndarray:
        """Per-rank halo-exchange seconds for ranks ``[lo, hi)``.

        Each rank's cost is an independent pure function of the seed and
        placement, so shard workers evaluate only their own slice.
        """
        from repro.mpi.netmodel import HaloExchangeModel

        halo = HaloExchangeModel(
            self.placement, self.cart_dims, self.local_shape,
            itemsize=self.itemsize,
            periodic=self.settings.boundary == "periodic",
            machine=self.machine,
        )
        return halo.slice_step_seconds(lo, hi)

    def _bytes_per_node(self) -> int:
        cells = int(np.prod(self.local_shape))
        ranks_on_full_node = min(self.nranks, self.placement.ranks_per_node)
        return 2 * cells * self.itemsize * ranks_on_full_node

    # -- the run ------------------------------------------------------------
    def run(self, *, jobs: int = 1) -> VirtualRunResult:
        """Run the virtual workflow; ``jobs > 1`` shards ranks over workers.

        Ranks couple only at output-step barriers and the final
        allreduce (and, with ``nic_contention``, within a node), so the
        run advances epoch by epoch (the steps between two output
        barriers) as the NumPy recurrences of :mod:`repro.sched.vector`:
        inline for one shard, or, with ``jobs > 1``, over node-aligned
        contiguous shards in :mod:`repro.par` pool workers (see
        docs/PARALLEL.md). The result does not depend on ``jobs``.
        """
        from repro.par import resolve_jobs

        jobs = resolve_jobs(jobs)
        shards = self._shards(jobs) if jobs > 1 else [(0, self.nranks)]
        return self._run_epochs(jobs, shards)

    def _shards(self, jobs: int) -> list[tuple[int, int]]:
        """Split ranks into <= ``jobs`` node-aligned ``(lo, hi)`` ranges.

        Node alignment keeps each node's leader rank and its followers
        in the same shard, so a shard can simulate its BP5 writes
        without cross-shard traffic.
        """
        bounds = list(range(0, self.nranks, self.placement.ranks_per_node))
        bounds.append(self.nranks)
        nnodes = len(bounds) - 1
        nshards = min(jobs, nnodes)
        shards = []
        base, extra = divmod(nnodes, nshards)
        node = 0
        for s in range(nshards):
            take = base + (1 if s < extra else 0)
            shards.append((bounds[node], bounds[node + take]))
            node += take
        return shards

    # -- epoch execution ----------------------------------------------------
    def _run_epochs(
        self, jobs: int, shards: list[tuple[int, int]]
    ) -> VirtualRunResult:
        """Epoch-synchronized virtual run on the NumPy recurrences.

        Ranks couple only at output barriers and the final allreduce
        (NIC queues are per node; the OSS, one writer per node, never
        queues), so each epoch of each shard is an independent
        :func:`repro.sched.vector.simulate_epoch`, inline for one shard
        or in :mod:`repro.par` pool workers. The parent replays the
        couplings: a barrier releases at ``max(arrivals)``, an
        overlapped leader resumes at ``max(barrier, previous write
        end)``, and with contention the next epoch's ranks resume in
        the barrier's release order
        (:func:`repro.sched.vector.arrival_order`). It sums the shards'
        profile counts and adds the barrier-wait and write-join gaps.
        Worker SIM-clock spans merge verbatim into the parent tracer.
        """
        from repro import observe
        from repro.gpu.proxy import grayscott_launch_cost, jit_compile_seconds
        from repro.observe.stream import stream_sink, worker_shard_spec
        from repro.par import run_tasks, tracemerge
        from repro.sched import vector

        settings = self.settings
        nranks, nnodes = self.nranks, self.placement.nnodes
        tracer = self.tracer if self.tracer is not None else observe.active()
        trace = tracer is not None
        #: a single shard runs inline (no pool) — spans go straight
        #: into the parent tracer
        inline = len(shards) == 1
        # streaming mode: workers write their own shard files into the
        # parent stream's directory and ship back manifest entries only;
        # the span lists never cross the pickle boundary
        sink = stream_sink(tracer) if trace and not inline else None
        jitter = self._kernel_jitter()
        scale_full = 1.0 + jitter
        plotgap = settings.plotgap
        output_steps = settings.steps // settings.plotgap

        # epoch k = [write of output k-1 on each leader] + plotgap steps,
        # ending at barrier k; the final segment is the write of the last
        # output + the tail steps + the allreduce arrival
        segments = [
            {
                "step_lo": (k - 1) * plotgap + 1,
                "step_hi": min(k * plotgap, settings.steps),
                "do_jit": k == 1,
                "out_prev": k - 1 or None,
                "final": k > output_steps,
            }
            for k in range(1, output_steps + 2)
        ]

        rpn = self.placement.ranks_per_node
        leaders = np.arange(nnodes) * rpn
        profile = self.profiler
        contended = self.nic_contention
        #: contention: each rank's place in the barrier's release order
        #: (-1 = the last arrival), the release time, the held leaders
        roots = release = None
        held = np.zeros(nranks, dtype=bool)
        starts = np.zeros(nranks)
        arrivals = np.empty(nranks)
        #: each node's latest write end; NaN until its first write
        write_end = np.full(nnodes, np.nan)
        comm_slices: list[np.ndarray | None] = [None] * len(shards)
        total_events = 0

        def chains_of(ranks):
            """Re-run the epoch of ``ranks``' nodes for their chains."""
            comm = np.concatenate(comm_slices)
            chains = []
            for rank in ranks.tolist():
                lo = rank - rank % rpn
                hi = min(lo + rpn, nranks)
                spec = self._epoch_spec({
                    "seg": seg, "lo": lo, "hi": hi,
                    "starts": starts[lo:hi], "scale": scale_full[lo:hi],
                    "roots": None if roots is None else roots[lo:hi],
                    "held": held[lo:hi], "release": release,
                }, comm[lo:hi])
                epoch = vector._contended_epoch(spec, None, None, chains=True)
                chains.append(epoch.chains[rank - lo])
            return chains
        for seg_idx, seg in enumerate(segments):
            tasks = []
            keys = []
            for s, (lo, hi) in enumerate(shards):
                tasks.append({
                    "settings": settings,
                    "nranks": nranks,
                    "overlap": self.overlap,
                    "nic_contention": self.nic_contention,
                    "machine": self.machine,
                    "trace": trace,
                    "stream": (
                        worker_shard_spec(sink, f"w{seg_idx:03d}.{s:02d}")
                        if sink is not None else None
                    ),
                    "lo": lo,
                    "hi": hi,
                    "starts": starts[lo:hi].copy(),
                    "scale": scale_full[lo:hi].copy(),
                    "comm": comm_slices[s],
                    "seg": seg,
                    "roots": None if roots is None else roots[lo:hi],
                    "held": held[lo:hi],
                    "release": release,
                    "profile": None if profile is None else profile.interval,
                })
            if inline:
                outs = [
                    self._vector_segment(task, tracer=tracer)
                    for task in tasks
                ]
            else:
                outs = run_tasks(
                    _virtual_segment_task, tasks, jobs=jobs, chunksize=1
                )
            for s, ((lo, hi), out) in enumerate(zip(shards, outs)):
                arrivals[lo:hi] = out["arrivals"]
                if out["write_ends"] is not None:
                    nodes, ends = out["write_ends"]
                    write_end[nodes] = ends
                if comm_slices[s] is None:
                    comm_slices[s] = out["comm"]
                total_events += out["events"]
                # (segment, shard) order — the same order merge_spans
                # replayed span lists in, so the streamed manifest
                # reconstructs the identical global span sequence
                if trace and out.get("shards") is not None:
                    sink.adopt_shards(out["shards"])
                elif trace and out["spans"]:
                    tracemerge.merge_spans(tracer, out["spans"])
                if profile is not None:
                    profile.merge(out["stacks"])
                if contended:
                    keys.append(out["keys"])
            barrier = float(arrivals.max())
            if profile is not None:
                profile.add((vector.RANK, vector.BARRIER_WAIT), arrivals,
                            np.full(nranks, barrier))
            if not seg["final"]:
                if contended:
                    order = vector.arrival_order(
                        arrivals, tuple(map(np.concatenate, zip(*keys))),
                        chains_of,
                    )
                    roots = np.empty(nranks, dtype=np.int64)
                    roots[order] = np.arange(nranks)
                    roots[order[-1]] = -1
                    release = barrier
                starts[:] = barrier
                if self.overlap:
                    # Join(previous write): the leader resumes at the
                    # later of the barrier and its node's drain finishing
                    later = write_end > barrier
                    held[:] = False
                    held[leaders[later]] = True
                    starts[leaders[later]] = write_end[later]
                    if profile is not None:
                        profile.add((vector.RANK, vector.WRITE_JOIN),
                                    np.full(int(later.sum()), barrier),
                                    write_end[later])

        elapsed = float(arrivals.max())
        comm = np.concatenate(comm_slices)
        launch_cost = grayscott_launch_cost(self.local_shape, settings.backend)
        checksum = vector.replay_allreduce(scale_full)
        if profile is not None:
            profile.finish(elapsed)
        if trace:
            tracer.metrics.gauge(
                "sched.events_processed", engine=f"virtual[{nranks}]"
            ).set(total_events)
            tracer.metrics.counter(
                "sched.vector_events", engine=f"virtual[{nranks}]"
            ).inc(total_events)
        return VirtualRunResult(
            nranks=nranks,
            nnodes=nnodes,
            steps=settings.steps,
            output_steps=output_steps,
            backend=settings.backend,
            overlap=self.overlap,
            elapsed_seconds=elapsed,
            rank_finish_seconds=np.full(nranks, elapsed),
            kernel_seconds_per_step=launch_cost.seconds,
            comm_seconds_mean=float(comm.mean()),
            jit_seconds=jit_compile_seconds(settings.backend),
            events_processed=total_events,
            collectives_per_rank=output_steps + 1,
            results=[checksum] * nranks,
        )

    def _epoch_spec(self, payload: dict, comm: np.ndarray):
        """The :class:`~repro.sched.vector.EpochSpec` of one segment task."""
        from repro.adios.fsmodel import LustreModel
        from repro.gpu.proxy import grayscott_launch_cost, jit_compile_seconds
        from repro.sched.profiler import collapse_label
        from repro.sched.vector import EpochSpec, EpochWrites
        from repro.util.rngs import DecimalTails

        settings = self.settings
        lo, hi = payload["lo"], payload["hi"]
        seg = payload["seg"]
        rpn = self.placement.ranks_per_node
        launch_cost = grayscott_launch_cost(self.local_shape, settings.backend)
        out_prev = seg["out_prev"]
        writes = None
        if out_prev is not None:
            leader_ranks = np.arange(lo, hi, rpn, dtype=np.int64)
            nodes = leader_ranks // rpn
            lustre = LustreModel(seed=settings.seed)
            seconds = lustre.write_seconds_per_node(
                self.placement.nnodes, self._bytes_per_node(),
                sample=DecimalTails(f"{out_prev}:", nodes),
            )
            writes = EpochWrites(
                index=leader_ranks - lo, nodes=nodes, seconds=seconds,
                output_step=out_prev,
            )
        return EpochSpec(
            ranks=np.arange(lo, hi, dtype=np.int64),
            starts=np.asarray(payload["starts"], dtype=np.float64),
            # the per-rank kernel seconds: one product per rank
            kernel=launch_cost.seconds
            * np.asarray(payload["scale"], dtype=np.float64),
            comm=comm,
            nsteps=max(0, seg["step_hi"] - seg["step_lo"] + 1),
            overlap=self.overlap,
            jit_seconds=(
                jit_compile_seconds(settings.backend) if seg["do_jit"] else 0.0
            ),
            writes=writes,
            final=seg["final"],
            kernel_state=collapse_label(f"delay({launch_cost.kernel_name})"),
            nics=self.machine.node.nics_per_node if self.nic_contention else 0,
            node_ranks=rpn,
            roots=payload["roots"],
            release=payload["release"],
            held=payload["held"],
        )

    def _vector_segment(self, payload: dict, *, tracer=None) -> dict:
        """Advance one epoch of ranks ``[lo, hi)`` on the recurrences.

        With ``tracer`` (inline mode) the epoch's spans go straight into
        the caller's tracer; in a pool worker they stream to a worker
        shard sink or ship back as a span list. A profiled run returns
        the epoch's partial sample counts.
        """
        from repro.gpu.backends import get_backend
        from repro.gpu.proxy import grayscott_launch_cost
        from repro.sched.profiler import SimProfiler
        from repro.sched.vector import (
            EpochEventQueue,
            emit_epoch_spans,
            simulate_epoch,
        )

        settings = self.settings
        trace = payload["trace"]
        stream = payload.get("stream")
        inline = tracer is not None
        wsink = None
        if trace and not inline:
            from repro.observe.trace import Tracer

            if stream is not None:
                from repro.observe.stream import open_worker_sink

                wsink = open_worker_sink(stream)
                tracer = Tracer(sinks=[wsink], retain=False)
            else:
                tracer = Tracer()
        comm = payload["comm"]
        sent_comm = comm is None
        if comm is None:
            comm = self._comm_slice(payload["lo"], payload["hi"])
        spec = self._epoch_spec(payload, comm)
        queue = EpochEventQueue() if trace else None
        profile = payload["profile"] and SimProfiler(payload["profile"])
        result = simulate_epoch(spec, queue=queue, profile=profile)
        if queue is not None:
            emit_epoch_spans(
                queue, tracer,
                kernel_name=grayscott_launch_cost(
                    self.local_shape, settings.backend
                ).kernel_name,
                backend=get_backend(settings.backend).name,
            )
        # the next epoch's join needs the overlapped writes' ends
        drains = self.overlap and result.write_ends is not None
        return {
            "arrivals": result.arrivals,
            "write_ends": (spec.writes.nodes, result.write_ends) if drains else None,
            "comm": comm if sent_comm else None,
            "spans": (
                list(tracer.spans)
                if trace and not inline and wsink is None else None
            ),
            "shards": wsink.finish() if wsink is not None else None,
            "events": result.events,
            "keys": result.keys,
            "stacks": profile.stacks if profile else None,
        }


def _virtual_segment_task(payload: dict) -> dict:
    """Pool task: rebuild the workflow in the worker and run one segment."""
    wf = VirtualWorkflow(
        payload["settings"],
        nranks=payload["nranks"],
        overlap=payload["overlap"],
        nic_contention=payload["nic_contention"],
        machine=payload["machine"],
    )
    return wf._vector_segment(payload)
