"""Per-layer attribution measured from outside the program.

The benchmark wraps public functions of each layer in its own process
(nothing under ``src/`` is edited) and records, per thread ("lane"),
the exclusive time of every wrapped call: the call's duration minus the
time its nested wrapped calls took. Totals are aggregated on the fly,
so a run with ~10^5 wrapped calls keeps no span list in memory.

Lanes are threads: ``MainThread`` runs the command, ``rank-N`` threads
run the threaded SPMD ranks, ``serve-worker_N`` threads execute service
jobs. A *view* joins the main lane with one worker lane: the worker's
exclusive times replace the part of the main lane's time that was spent
waiting for that worker, so a view's metrics add up to the command's
wall time. ``unattributed_s`` is the self time of the command root and
of the thread fork/join span — time no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

perf = time.perf_counter

#: metric that collects the self time of the command root and the fork span
RESIDUE = "unattributed_s"


class Lane:
    """The span stack and running totals of one thread."""

    __slots__ = ("name", "stack", "self_s", "counts", "samples", "roots_s")

    def __init__(self, name: str):
        self.name = name
        #: open frames: [metric, start, seconds covered by children]
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: total duration of this lane's outermost spans
        self.roots_s = 0.0


class Recorder:
    """Thread-aware exclusive-time recorder fed by :meth:`timed` wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.lanes: list[Lane] = []

    def lane(self) -> Lane:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            lane = Lane(threading.current_thread().name)
            with self._lock:
                self.lanes.append(lane)
            self._local.lane = lane
        return lane

    def timed(self, metric: str, fn, *, count: str | None = None,
              sample: str | None = None, before=None, after=None):
        """``fn`` wrapped so its exclusive time lands in ``metric``.

        ``count`` names a call counter, ``sample`` a list that receives
        every inclusive duration, ``before(lane, args, kwargs)`` and
        ``after(lane, result)`` add layer counts (bytes, events).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lane = self.lane()
            if before is not None:
                before(lane, args, kwargs)
            stack = lane.stack
            frame = [metric, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf() - frame[1]
                stack.pop()
                lane.self_s[metric] += seconds - frame[2]
                if count is not None:
                    lane.counts[count] += 1
                if sample is not None:
                    lane.samples[sample].append(seconds)
                if stack:
                    stack[-1][2] += seconds
                else:
                    lane.roots_s += seconds
            if after is not None:
                after(lane, result)
            return result

        return wrapper

    # -- reading the totals ---------------------------------------------------
    def named(self, name: str) -> list[Lane]:
        return [lane for lane in self.lanes if lane.name == name]

    def view(self, worker: str | None = None) -> dict[str, float]:
        """Exclusive seconds per metric of the main lane joined with ``worker``.

        The worker lane's outermost spans ran while the main lane sat in
        the fork span (``run_spmd``) or the command root, both of which
        count as :data:`RESIDUE`; their duration moves from the residue
        to the worker's own exclusive times.
        """
        totals: dict[str, float] = defaultdict(float)
        for lane in self.named("MainThread"):
            for metric, seconds in lane.self_s.items():
                totals[metric] += seconds
        if worker is not None:
            for lane in self.named(worker):
                for metric, seconds in lane.self_s.items():
                    totals[metric] += seconds
                totals[RESIDUE] -= lane.roots_s
        return dict(totals)

    def total_count(self, name: str) -> float:
        return sum(lane.counts.get(name, 0) for lane in self.lanes)

    def samples(self, name: str, lane_name: str) -> list[float]:
        return [s for lane in self.named(lane_name)
                for s in lane.samples.get(name, ())]


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def install(rec: Recorder, *, full: bool = True) -> None:
    """Wrap the layer boundaries the benchmark attributes time to.

    ``full=False`` wraps only ``Simulation.step``, whose per-step
    latency is an end-to-end metric and costs ~1 us against ms steps.

    Functions imported by name into another module are patched where
    they are looked up at call time (``exchange_ghosts`` in
    ``core.simulation``, ``pack``/``unpack`` in ``core.exchange`` and
    ``mpi.comm``, ``execute_and_render`` in ``serve.service``).
    """
    from repro.core import simulation

    t = rec.timed
    Sim = simulation.Simulation
    Sim.step = t("core.step.self_s", Sim.step, count="core.step.calls",
                 sample="core.step")
    if not full:
        return

    from repro.adios.engines import BP5Writer
    from repro.adios.fsmodel import LustreModel
    from repro.analysis.reader import GrayScottDataset
    from repro.core import exchange, present, virtual, workflow
    from repro.gpu.jit import TraceMemo
    from repro.gpu.kernel import Kernel
    from repro.gpu.memory import Device
    from repro.mpi import comm as mpi_comm
    from repro.mpi import datatypes, executor
    from repro.mpi.netmodel import HaloExchangeModel
    from repro.observe.stream import ShardedPerfettoWriter
    from repro.sched import vector
    from repro.serve import service
    from repro.serve.store import ResultStore

    # core
    simulation.exchange_ghosts = t(
        "core.exchange.self_s", simulation.exchange_ghosts,
        count="core.exchange.calls")
    WF = workflow.Workflow
    WF.__init__ = t("core.workflow.self_s", WF.__init__)
    WF.run = t("core.workflow.self_s", WF.run)

    # mpi runtime
    Comm = mpi_comm.Comm

    def send_bytes(lane, args, kwargs):
        lane.counts["mpi.send.calls"] += 1
        lane.counts["mpi.send.bytes"] += _nbytes(
            args[1] if len(args) > 1 else kwargs.get("data"))

    Comm.send = t("mpi.send.s", Comm.send)
    Comm.isend = t("mpi.send.s", Comm.isend, before=send_bytes)
    Comm.recv = t("mpi.recv.wait_s", Comm.recv)
    Comm.irecv = t("mpi.recv.wait_s", Comm.irecv)
    for name in ("barrier", "bcast", "reduce", "allreduce", "gather",
                 "allgather", "scatter", "alltoall"):
        setattr(Comm, name, t("mpi.coll.wait_s", getattr(Comm, name),
                              count="mpi.coll.calls"))
    pack = t("mpi.pack.s", datatypes.pack)
    unpack = t("mpi.unpack.s", datatypes.unpack)
    for module in (datatypes, mpi_comm, exchange):
        module.pack = pack
        module.unpack = unpack
    executor.run_spmd = t(RESIDUE, executor.run_spmd)

    # gpu
    Device.launch = t("gpu.launch.self_s", Device.launch,
                      count="gpu.launch.calls")
    TraceMemo.trace = t("gpu.jit.trace_s", TraceMemo.trace)
    Kernel.execute = t("gpu.kernel.execute_s", Kernel.execute)

    # adios runtime
    def put_bytes(lane, args, kwargs):
        lane.counts["adios.put.calls"] += 1
        lane.counts["adios.put.bytes"] += _nbytes(
            args[2] if len(args) > 2 else kwargs.get("data"))

    BP5Writer.__init__ = t("adios.open.s", BP5Writer.__init__)
    BP5Writer.put = t("adios.put.s", BP5Writer.put, before=put_bytes)
    BP5Writer.end_step = t("adios.end_step.s", BP5Writer.end_step)
    BP5Writer.close = t("adios.close.s", BP5Writer.close)

    # analysis
    for name in ("__init__", "minmax", "summary"):
        setattr(GrayScottDataset, name,
                t("analysis.s", getattr(GrayScottDataset, name)))

    # performance models of the virtual run
    LustreModel.write_seconds_per_node = t(
        "adios.fsmodel.s", LustreModel.write_seconds_per_node,
        count="adios.fsmodel.calls")
    HaloExchangeModel.slice_step_seconds = t(
        "mpi.netmodel.s", HaloExchangeModel.slice_step_seconds)

    def epoch_events(lane, result):
        lane.counts["sched.events"] += result.events

    vector.simulate_epoch = t("sched.epoch_s", vector.simulate_epoch,
                              count="sched.epochs", after=epoch_events)
    VW = virtual.VirtualWorkflow
    VW.run = t("core.virtual.self_s", VW.run)

    # observe
    vector.emit_epoch_spans = t("observe.emit_s", vector.emit_epoch_spans)
    for name in ("record_many", "flush", "finish", "close"):
        setattr(ShardedPerfettoWriter, name,
                t("observe.sink_s", getattr(ShardedPerfettoWriter, name)))

    # serve
    service.execute_and_render = t("serve.execute_s",
                                   service.execute_and_render)
    ResultStore.get = t("serve.store.s", ResultStore.get,
                        sample="serve.store.get")
    ResultStore.put = t("serve.store.s", ResultStore.put)
    render = present.render_result
    render_timed = t("serve.render_s", render)

    def render_result(result):
        # a service job's render is serve work; the CLI's render of its
        # own result stays in the command's residue
        stack = rec.lane().stack
        if stack and stack[0][0] == "serve.execute_s":
            return render_timed(result)
        return render(result)

    present.render_result = render_result
