"""Virtual-run oracle: one generator per rank on the discrete-event engine.

Production :meth:`repro.core.virtual.VirtualWorkflow.run` advances the
run epoch by epoch as NumPy recurrences, NIC contention and the
sampling profile included. This is the schedule it replaced, written
as rank programs: JIT, then ``steps`` x (kernel, halo exchange), a
barrier plus a node-leader BP5 write every ``plotgap`` steps, and a
final allreduce. The halo takes a private link per rank, or with
``nic_contention`` one of the node's ``nics_per_node`` shared ports
(a FIFO :class:`~tests.oracles.engine.Resource`). With ``overlap`` the
halo runs as its own process beside the kernel and the write drains
while the next steps run.
"""

from __future__ import annotations

import numpy as np

from repro.adios.fsmodel import LustreModel
from repro.core.virtual import VirtualRunResult, VirtualWorkflow
from repro.gpu.backends import get_backend
from repro.gpu.proxy import grayscott_launch_cost, jit_compile_seconds
from repro.mpi.netmodel import NetModel
from tests.oracles.engine import Engine, Join, UsePlan, use
from tests.oracles.vspmd import run_virtual_spmd


def run_serial(
    workflow: VirtualWorkflow, *, tracer=None, profiler=None
) -> VirtualRunResult:
    """Run ``workflow`` as per-rank generators on one engine.

    ``tracer`` and ``profiler`` (a
    :class:`tests.oracles.engine.SimProfiler` sampling the engine)
    default to the workflow's.
    """
    settings = workflow.settings
    placement = workflow.placement
    machine = workflow.machine
    nranks, nnodes = workflow.nranks, placement.nnodes
    engine = Engine(
        name=f"virtual[{nranks}]",
        tracer=tracer if tracer is not None else workflow.tracer,
        profiler=profiler if profiler is not None else workflow.profiler,
    )
    jitter = workflow._kernel_jitter()
    comm = workflow._comm_seconds()
    lustre = LustreModel(seed=settings.seed)
    bytes_per_node = workflow._bytes_per_node()
    oss = engine.resource(
        "lustre-oss", capacity=nnodes, lane=("lustre-oss", "write")
    )
    output_steps = settings.steps // settings.plotgap
    overlap = workflow.overlap
    leaders = {placement.location(r).node: r for r in range(nranks - 1, -1, -1)}
    launch_cost = grayscott_launch_cost(workflow.local_shape, settings.backend)
    backend = get_backend(settings.backend).name
    jit_seconds = jit_compile_seconds(settings.backend)

    def program(vcomm):
        rank = vcomm.rank
        node = placement.location(rank).node
        gcd = engine.resource(f"gcd{rank}", lane=(f"gcd{rank}", "kernel"))
        if workflow.nic_contention:
            nic = engine.resource(
                f"node{node}.nic",
                capacity=machine.node.nics_per_node,
                lane=(f"node{node}", "mpi"),
            )
        else:
            nic = engine.resource(f"nic{rank}", lane=(f"vrank{rank}", "mpi"))
        scale = float(1.0 + jitter[rank])
        kernel_plan = UsePlan(
            gcd, launch_cost.seconds * scale, label=launch_cost.kernel_name,
            cat="gpu", args={"gcd": rank},
        )
        halo_plan = UsePlan(nic, float(comm[rank]), label="halo", cat="mpi")
        halo_name = f"vrank{rank}.halo"
        halo_lane = (f"vrank{rank}", "mpi")
        if jit_seconds > 0.0:
            yield from use(
                gcd, jit_seconds, label="jit.compile", cat="gpu",
                args={"backend": backend},
            )
        pending_write = None
        for step in range(1, settings.steps + 1):
            if overlap:
                halo = engine.spawn(halo_name, halo_plan.use(), lane=halo_lane)
                yield from kernel_plan.use()
                yield Join(halo)
            else:
                yield from kernel_plan.use()
                yield from halo_plan.use()
            if step % settings.plotgap == 0:
                # BP5 end_step is collective; then each node's leader
                # aggregates its ranks' blocks into one subfile
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

    net = NetModel(placement)
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
        jit_seconds=jit_seconds,
        events_processed=engine.events_processed,
        collectives_per_rank=sum(
            1 for op in spmd.job.op_log[0]
            if op.kind in ("barrier", "allreduce")
        ),
        results=spmd.results,
    )
