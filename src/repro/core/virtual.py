"""Virtual SPMD mode: modeled Frontier-scale runs of a settings file.

The thread-backed executor (:mod:`repro.mpi.executor`) runs the *real*
solver but tops out at a few dozen ranks. This module runs the same
workflow shape — JIT, then ``steps`` x (kernel, halo exchange), with a
barrier + BP5 node-aggregated write every ``plotgap`` steps — as
**virtual processes** on the discrete-event engine (:mod:`repro.sched`),
with every duration drawn from the calibrated performance models:

- kernel launches from :func:`repro.gpu.proxy.grayscott_launch_cost`
  (via :class:`~repro.gpu.proxy.VirtualGcd`), with the persistent
  per-rank jitter of :mod:`repro.mpi.netmodel`;
- halo-exchange costs from
  :class:`~repro.mpi.netmodel.HaloExchangeModel`;
- subfile writes from :class:`~repro.adios.fsmodel.LustreModel`, one
  aggregator per node on a shared OSS resource.

The settings' grid is the **per-rank local block** (the paper's weak
scaling: 1024^3 cells per GCD at every job size). ``overlap=True``
models the nonblocking exchange and BP5 async drain: halo traffic rides
the NIC while the kernel occupies the GCD, and the write of one output
step streams while the next solve steps run. Ranks advance epoch by
epoch as NumPy arrays (:mod:`repro.sched.vector`), falling back to one
generator per rank where ranks couple within a step; when an
:mod:`repro.observe` tracer is active every modeled event lands in the
exported Perfetto timeline.
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
        #: a :class:`repro.sched.SimProfiler` sampling the rank states
        #: at virtual-time intervals; forces the generator engine (one
        #: process table to sample)
        self.profiler = profiler
        self.placement = Placement(self.nranks, machine)
        self.cart_dims = dims_create(self.nranks, 3)
        #: weak scaling: the settings' grid is each rank's local block
        self.local_shape = settings.shape

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
            periodic=self.settings.boundary == "periodic",
            machine=self.machine,
        )
        return halo.slice_step_seconds(lo, hi)

    def _bytes_per_node(self) -> int:
        itemsize = 8 if self.settings.precision == "float64" else 4
        cells = int(np.prod(self.local_shape))
        ranks_on_full_node = min(self.nranks, self.placement.ranks_per_node)
        return 2 * cells * itemsize * ranks_on_full_node

    # -- the run ------------------------------------------------------------
    def run(self, *, jobs: int = 1) -> VirtualRunResult:
        """Run the virtual workflow; ``jobs > 1`` shards ranks over workers.

        Ranks couple only at output-step barriers and the final
        allreduce, so the run advances epoch by epoch (the steps between
        two output barriers) through the NumPy epoch engine
        (:mod:`repro.sched.vector`): inline for one shard, or — with
        ``jobs > 1`` — over node-aligned contiguous shards in
        :mod:`repro.par` pool workers (see docs/PARALLEL.md). Either way
        the result is bit-identical to :meth:`_run_serial`.
        ``nic_contention`` couples ranks within every step and the
        profiler samples a per-rank process table, so either one runs
        the per-rank generators of :meth:`_run_serial` instead.
        """
        from repro.par import resolve_jobs

        jobs = resolve_jobs(jobs)
        if self.nic_contention or self.profiler is not None:
            return self._run_serial()
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

    def _run_serial(self) -> VirtualRunResult:
        """Per-rank generators on one discrete-event engine.

        The path for ``nic_contention`` and profiled runs, and the
        reference the epoch engine of :meth:`run` is tested against.
        """
        from repro.adios.fsmodel import LustreModel
        from repro.gpu.proxy import (
            VirtualGcd,
            grayscott_launch_cost,
            jit_compile_seconds,
        )
        from repro.mpi.netmodel import NetModel
        from repro.sched import Engine, Join, UsePlan, run_virtual_spmd, use

        settings = self.settings
        nranks, nnodes = self.nranks, self.placement.nnodes
        engine = Engine(
            name=f"virtual[{nranks}]", tracer=self.tracer,
            profiler=self.profiler,
        )
        jitter = self._kernel_jitter()
        comm = self._comm_seconds()
        lustre = LustreModel(self.machine, seed=settings.seed)
        bytes_per_node = self._bytes_per_node()
        oss = engine.resource(
            "lustre-oss", capacity=nnodes, lane=("lustre-oss", "write")
        )
        output_steps = settings.steps // settings.plotgap
        overlap = self.overlap
        leaders = {
            self.placement.location(r).node: r for r in range(nranks - 1, -1, -1)
        }
        # weak scaling: every GCD runs the same local block, so the
        # launch cost is computed once, not once per rank
        launch_cost = grayscott_launch_cost(
            self.local_shape, settings.backend
        )

        def program(vcomm):
            rank = vcomm.rank
            node = self.placement.location(rank).node
            gcd = VirtualGcd(
                engine, rank, shape=self.local_shape,
                backend=settings.backend, machine=self.machine,
                launch_cost=launch_cost,
            )
            if self.nic_contention:
                nic = engine.resource(
                    f"node{node}.nic",
                    capacity=self.machine.node.nics_per_node,
                    lane=(f"node{node}", "mpi"),
                )
            else:
                nic = engine.resource(
                    f"nic{rank}", lane=(f"vrank{rank}", "mpi")
                )
            scale = float(1.0 + jitter[rank])
            comm_s = float(comm[rank])
            halo_plan = UsePlan(nic, comm_s, label="halo", cat="mpi")
            halo_name = f"vrank{rank}.halo"
            halo_lane = (f"vrank{rank}", "mpi")
            yield from gcd.jit()
            pending_write = None
            for step in range(1, settings.steps + 1):
                if overlap:
                    halo = engine.spawn(
                        halo_name, halo_plan.use(), lane=halo_lane
                    )
                    yield from gcd.kernel(scale)
                    yield Join(halo)
                else:
                    yield from gcd.kernel(scale)
                    yield from halo_plan.use()
                if step % settings.plotgap == 0:
                    # output step: all ranks synchronize (BP5 end_step is
                    # collective), then each node's leader aggregates its
                    # ranks' blocks into one subfile
                    yield from vcomm.barrier()
                    if leaders[node] == rank:
                        out = step // settings.plotgap
                        seconds = lustre.write_seconds_per_node(
                            nnodes, bytes_per_node, sample=f"{out}:{node}"
                        )
                        write = use(
                            oss, seconds, label="bp5.write", cat="adios",
                            args={"node": node, "output_step": out},
                        )
                        if overlap:
                            if pending_write is not None:
                                yield Join(pending_write)
                            pending_write = engine.spawn(
                                f"node{node}.write{out}", write,
                                lane=(f"node{node}", "adios"),
                            )
                        else:
                            yield from write
            if pending_write is not None:
                yield Join(pending_write)
            checksum = yield from vcomm.allreduce(scale, op="sum")
            return checksum

        # point-to-point sends inside rank programs (none in the stock
        # Gray-Scott program, which models halo cost in aggregate) are
        # charged by the placement-aware LogGP model instead of the
        # bare VirtualJob's zero-latency default
        net = NetModel(self.placement)
        spmd = run_virtual_spmd(
            program, nranks, engine=engine, p2p_seconds=net.p2p_seconds
        )
        return VirtualRunResult(
            nranks=nranks,
            nnodes=nnodes,
            steps=settings.steps,
            output_steps=output_steps,
            backend=settings.backend,
            overlap=overlap,
            elapsed_seconds=spmd.elapsed_seconds,
            rank_finish_seconds=np.array(spmd.rank_finish_seconds),
            kernel_seconds_per_step=launch_cost.seconds,
            comm_seconds_mean=float(comm.mean()),
            jit_seconds=jit_compile_seconds(settings.backend),
            events_processed=engine.events_processed,
            collectives_per_rank=sum(
                1 for op in spmd.job.op_log[0]
                if op.kind in ("barrier", "allreduce")
            ),
            results=spmd.results,
        )

    # -- epoch execution ----------------------------------------------------
    def _run_epochs(
        self, jobs: int, shards: list[tuple[int, int]]
    ) -> VirtualRunResult:
        """Epoch-synchronized virtual run on the NumPy epoch engine.

        Ranks couple only at output-step barriers and the final
        allreduce, and the shared OSS resource (capacity == nnodes,
        one leader per node) never queues — so each *epoch* (the
        ``plotgap`` steps ending at a barrier, plus the write of the
        previous output on the node leader) of each shard is an
        independent simulation. The parent replays the couplings
        exactly: a barrier releases at ``max(arrivals)`` (the same
        float max the serial engine computes), and an overlapped
        leader resumes at ``max(barrier, previous write end)`` (the
        serial ``Join`` semantics). Worker SIM-clock spans merge
        verbatim into the parent tracer, so the Perfetto timeline is
        span-identical to the serial run.

        Each epoch of each shard advances with
        :func:`repro.sched.vector.simulate_epoch`; a single shard runs
        inline in this process, otherwise each shard ships to a
        :mod:`repro.par` pool worker.
        """
        from repro import observe
        from repro.gpu.proxy import grayscott_launch_cost, jit_compile_seconds
        from repro.observe.stream import stream_sink, worker_shard_spec
        from repro.par import run_tasks, tracemerge
        from repro.sched import replay_allreduce

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
        segments = []
        for k in range(1, output_steps + 1):
            segments.append({
                "step_lo": (k - 1) * plotgap + 1,
                "step_hi": k * plotgap,
                "do_jit": k == 1,
                "out_prev": k - 1 if k >= 2 else None,
                "final": False,
            })
        segments.append({
            "step_lo": output_steps * plotgap + 1,
            "step_hi": settings.steps,
            "do_jit": output_steps == 0,
            "out_prev": output_steps if output_steps >= 1 else None,
            "final": True,
        })

        leaders = np.arange(nnodes) * self.placement.ranks_per_node
        starts = np.zeros(nranks)
        arrivals = np.empty(nranks)
        #: each node's latest write end; NaN until its first write
        write_end = np.full(nnodes, np.nan)
        comm_slices: list[np.ndarray | None] = [None] * len(shards)
        total_events = 0
        for seg_idx, seg in enumerate(segments):
            tasks = []
            for s, (lo, hi) in enumerate(shards):
                tasks.append({
                    "settings": settings,
                    "nranks": nranks,
                    "overlap": self.overlap,
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
            barrier = float(arrivals.max())
            if not seg["final"]:
                starts[:] = barrier
                if self.overlap:
                    # Join(previous write): the leader resumes at the
                    # later of the barrier and its node's drain finishing
                    later = write_end > barrier
                    starts[leaders[later]] = write_end[later]

        elapsed = float(arrivals.max())
        comm = np.concatenate(comm_slices)
        launch_cost = grayscott_launch_cost(self.local_shape, settings.backend)
        checksum = replay_allreduce(scale_full, "sum")
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

    def _vector_segment(self, payload: dict, *, tracer=None) -> dict:
        """Advance one epoch of ranks ``[lo, hi)`` with the epoch engine.

        The float recurrences of :meth:`_run_serial`'s generators (see
        :mod:`repro.sched.vector`), none of the per-rank generator
        machinery. With ``tracer`` (inline mode) the epoch's spans go
        straight into the caller's tracer; in a pool worker they stream
        to a worker shard sink or ship back as a span list.
        """
        from repro.adios.fsmodel import LustreModel
        from repro.gpu.backends import get_backend
        from repro.gpu.proxy import grayscott_launch_cost, jit_compile_seconds
        from repro.sched.vector import (
            EpochEventQueue,
            EpochSpec,
            EpochWrites,
            emit_epoch_spans,
            simulate_epoch,
        )
        from repro.util.rngs import DecimalTails

        settings = self.settings
        lo, hi = payload["lo"], payload["hi"]
        seg = payload["seg"]
        overlap = self.overlap
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
        starts = np.asarray(payload["starts"], dtype=np.float64)
        scale = np.asarray(payload["scale"], dtype=np.float64)
        comm = payload["comm"]
        sent_comm = comm is None
        if comm is None:
            comm = self._comm_slice(lo, hi)
        launch_cost = grayscott_launch_cost(self.local_shape, settings.backend)
        # the same float product VirtualGcd.kernel(scale) plans per rank
        kernel = launch_cost.seconds * scale
        out_prev = seg["out_prev"]
        writes = None
        if out_prev is not None:
            rpn = self.placement.ranks_per_node
            leader_ranks = np.arange(lo, hi, rpn, dtype=np.int64)
            nodes = leader_ranks // rpn
            lustre = LustreModel(self.machine, seed=settings.seed)
            seconds = lustre.write_seconds_per_node(
                self.placement.nnodes, self._bytes_per_node(),
                sample=DecimalTails(f"{out_prev}:", nodes),
            )
            writes = EpochWrites(
                index=leader_ranks - lo, nodes=nodes, seconds=seconds,
                output_step=out_prev,
            )
        spec = EpochSpec(
            ranks=np.arange(lo, hi, dtype=np.int64),
            starts=starts,
            kernel=kernel,
            comm=comm,
            nsteps=max(0, seg["step_hi"] - seg["step_lo"] + 1),
            overlap=overlap,
            jit_seconds=(
                jit_compile_seconds(settings.backend) if seg["do_jit"] else 0.0
            ),
            writes=writes,
            final=seg["final"],
        )
        queue = EpochEventQueue() if trace else None
        result = simulate_epoch(spec, queue=queue)
        if queue is not None:
            emit_epoch_spans(
                queue, tracer,
                kernel_name=launch_cost.kernel_name,
                backend=get_backend(settings.backend).name,
            )
        ends = None
        if overlap and writes is not None and result.write_ends is not None:
            ends = (writes.nodes, result.write_ends)
        return {
            "arrivals": result.arrivals,
            "write_ends": ends,
            "comm": comm if sent_comm else None,
            "spans": (
                list(tracer.spans)
                if trace and not inline and wsink is None else None
            ),
            "shards": wsink.finish() if wsink is not None else None,
            "events": result.events,
        }


def _virtual_segment_task(payload: dict) -> dict:
    """Pool task: rebuild the workflow in the worker and run one segment."""
    wf = VirtualWorkflow(
        payload["settings"],
        nranks=payload["nranks"],
        overlap=payload["overlap"],
        machine=payload["machine"],
    )
    return wf._vector_segment(payload)
