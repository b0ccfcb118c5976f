"""Lustre Orion performance model (Figure 8).

The paper's parallel I/O experiment writes one output step of each
weak-scaling case (two 1024^3 float64 fields per GCD, 8 GCDs per node
-> ~137 GB per node-subfile) and observes "fairly flat" write times
with aggregate bandwidth growing to 434 GB/s at 512 nodes — 8% of the
file system's 5.5 TB/s peak while using 5% of the machine.

Model: each node's aggregator streams its subfile at a sustained
per-node bandwidth, derated by a slowly growing contention factor (OSS
sharing and metadata pressure), plus a fixed metadata/open cost and
lognormal jitter ("real-time file system usage"). The aggregate is
capped by the file system peak. Constants live in
:mod:`repro.bench.calibration`.

The weak-scaling sweep posts each node's write as a timed event on the
discrete-event engine (:mod:`repro.sched`): node aggregators occupy a
shared Lustre OSS resource, the job's write time is the virtual instant
the last subfile lands, and :func:`IoWeakScalingModel.run_pipeline`
additionally models BP5's deferred/async drain — the write of step
``k`` rides the OSS while the solve of step ``k+1`` runs on the GCDs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bench import calibration as cal
from repro.cluster.frontier import FRONTIER, MachineSpec
from repro.util.rngs import RngStream


def contention_efficiency(nnodes: int) -> float:
    """Per-node derating factor as the job's writer count grows."""
    if nnodes < 1:
        raise ValueError(f"nnodes must be >= 1, got {nnodes}")
    return 1.0 / (1.0 + cal.LUSTRE_CONTENTION_COEF * math.log2(max(nnodes, 1) or 1))


class LustreModel:
    """Write-time model for BP5-style one-subfile-per-node output."""

    def __init__(self, machine: MachineSpec = FRONTIER, *, seed: int = 2023):
        self.machine = machine
        self.stream = RngStream(seed, ("lustre",))

    def node_write_bandwidth(self, nnodes: int) -> float:
        """Sustained bytes/s one aggregator gets in an ``nnodes`` job."""
        return cal.LUSTRE_NODE_WRITE_BW_BYTES_PER_S * contention_efficiency(nnodes)

    def aggregate_write_bandwidth(self, nnodes: int) -> float:
        """Job-level write bandwidth, capped at the file system peak."""
        return min(
            nnodes * self.node_write_bandwidth(nnodes),
            self.machine.filesystem.peak_write_bytes_per_s,
        )

    def write_seconds_per_node(
        self,
        nnodes: int,
        bytes_per_node: float,
        *,
        sample: int | str | Sequence[int] | Sequence[str] = 0,
    ) -> float | np.ndarray:
        """Wall-clock of one node's subfile write, with jitter.

        ``sample`` keys the deterministic jitter draw (e.g. node id): the
        draw for ``sample`` is the normal of generator ``("lustre",
        "write", nnodes, sample)``. A sequence of samples (all int or all
        str) returns an array with one write time per sample, drawn in
        one pass and bit-identical to per-sample calls.
        """
        if bytes_per_node < 0:
            raise ValueError("bytes_per_node must be non-negative")
        single = isinstance(sample, (int, np.integer, str))
        gauss = self.stream.normals(
            "write", nnodes,
            tails=[sample] if single else sample,
            scale=cal.LUSTRE_WRITE_SIGMA,
        )
        base = bytes_per_node / self.node_write_bandwidth(nnodes)
        seconds = cal.LUSTRE_METADATA_SECONDS + base * np.exp(gauss)
        return float(seconds[0]) if single else seconds

    def job_write_seconds(self, nnodes: int, bytes_per_node: float) -> float:
        """Slowest node's write time (the job waits on all subfiles)."""
        times = self.write_seconds_per_node(
            nnodes, bytes_per_node, sample=range(nnodes)
        )
        return float(times.max())


@dataclass(frozen=True)
class IoScalingPoint:
    """One Figure-8 x-value: an (nnodes, bytes_per_node) write."""

    nnodes: int
    nranks: int
    bytes_per_node: float
    write_seconds: float

    @property
    def total_bytes(self) -> float:
        return self.nnodes * self.bytes_per_node

    @property
    def write_bandwidth(self) -> float:
        return self.total_bytes / self.write_seconds


@dataclass(frozen=True)
class IoPipelinePoint:
    """A multi-step solve+write schedule (BP5 deferred-drain model)."""

    nranks: int
    nnodes: int
    steps: int
    bytes_per_node: float
    compute_seconds_per_step: float
    #: slowest node's serial compute->write->compute->write... total
    serial_seconds: float
    #: virtual end time of the scheduled job (== serial when overlap off)
    elapsed_seconds: float
    overlap: bool

    @property
    def overlap_speedup(self) -> float:
        return self.serial_seconds / self.elapsed_seconds


class IoWeakScalingModel:
    """Reproduces Figure 8: write wall-clock + bandwidth vs. job size."""

    def __init__(
        self,
        *,
        local_shape: tuple[int, int, int] = (1024, 1024, 1024),
        nvars: int = 2,
        itemsize: int = 8,
        ranks_per_node: int = 8,
        machine: MachineSpec = FRONTIER,
        seed: int = 2023,
    ):
        self.machine = machine
        self.local_shape = local_shape
        self.ranks_per_node = ranks_per_node
        self.bytes_per_rank = int(np.prod(local_shape)) * nvars * itemsize
        self.model = LustreModel(machine, seed=seed)

    def _layout(self, nranks: int) -> tuple[int, float]:
        nnodes = -(-nranks // self.ranks_per_node)
        ranks_on_full_node = min(nranks, self.ranks_per_node)
        return nnodes, self.bytes_per_rank * ranks_on_full_node

    def run_point(self, nranks: int) -> IoScalingPoint:
        from repro.sched import Engine, use

        nnodes, bytes_per_node = self._layout(nranks)
        engine = Engine(name=f"fig8[{nranks}]")
        # capacity == nnodes: every aggregator streams concurrently; the
        # contention cost of sharing the OSS pool is already inside
        # node_write_bandwidth's derating factor
        oss = engine.resource(
            "lustre-oss", capacity=nnodes, lane=("lustre-oss", "write")
        )

        seconds = self.model.write_seconds_per_node(
            nnodes, bytes_per_node, sample=range(nnodes)
        ).tolist()

        def writer(node: int):
            yield from use(
                oss, seconds[node], label="bp5.write", cat="adios",
                args={"node": node, "bytes": bytes_per_node},
            )

        for node in range(nnodes):
            engine.spawn(f"node{node}", writer(node), lane=(f"node{node}", "adios"))
        # the job waits on the slowest subfile: virtual end time == the
        # max over nodes, bitwise identical to job_write_seconds()
        seconds = engine.run()
        engine.check_quiescent()
        return IoScalingPoint(
            nnodes=nnodes,
            nranks=nranks,
            bytes_per_node=bytes_per_node,
            write_seconds=seconds,
        )

    def run_pipeline(
        self,
        nranks: int,
        *,
        steps: int = 4,
        compute_seconds_per_step: float | None = None,
        overlap: bool = False,
    ) -> IoPipelinePoint:
        """Schedule ``steps`` x (solve, output) on the engine.

        ``overlap=True`` models BP5's deferred-put drain: the write of
        step ``k`` streams to the OSS while step ``k+1`` computes; each
        node joins its outstanding write before posting the next one
        (one in-flight output step, like an async double buffer).
        """
        from repro.sched import Engine, Join, use

        if compute_seconds_per_step is None:
            from repro.gpu.proxy import grayscott_launch_cost

            compute_seconds_per_step = grayscott_launch_cost(
                self.local_shape, "julia"
            ).seconds
        nnodes, bytes_per_node = self._layout(nranks)
        engine = Engine(name=f"fig8.pipeline[{nranks}]")
        oss = engine.resource(
            "lustre-oss", capacity=nnodes, lane=("lustre-oss", "write")
        )

        # sample keys the deterministic jitter draw; fold the step in so
        # every (step, node) write jitters independently
        step_writes = [
            self.model.write_seconds_per_node(
                nnodes, bytes_per_node,
                sample=range(step * 1_000_003, step * 1_000_003 + nnodes),
            ).tolist()
            for step in range(steps)
        ]

        def node_program(node: int, gcd):
            pending = None
            for step in range(steps):
                yield from use(
                    gcd, compute_seconds_per_step, label="solve", cat="gpu",
                    args={"step": step},
                )
                write = use(
                    oss, step_writes[step][node], label="bp5.write",
                    cat="adios", args={"node": node, "step": step},
                )
                if overlap:
                    if pending is not None:
                        yield Join(pending)
                    pending = engine.spawn(
                        f"node{node}.write{step}", write,
                        lane=(f"node{node}", "adios"),
                    )
                else:
                    yield from write
            if pending is not None:
                yield Join(pending)

        processes = []
        for node in range(nnodes):
            gcd = engine.resource(
                f"node{node}-gcds", lane=(f"node{node}", "solve")
            )
            processes.append(
                engine.spawn(
                    f"node{node}", node_program(node, gcd),
                    lane=(f"node{node}", "core"),
                )
            )
        elapsed = engine.run()
        engine.check_quiescent()
        serial = max(
            sum(
                compute_seconds_per_step + step_writes[step][node]
                for step in range(steps)
            )
            for node in range(nnodes)
        )
        return IoPipelinePoint(
            nranks=nranks,
            nnodes=nnodes,
            steps=steps,
            bytes_per_node=bytes_per_node,
            compute_seconds_per_step=compute_seconds_per_step,
            serial_seconds=serial,
            elapsed_seconds=elapsed,
            overlap=overlap,
        )

    def run(self, nranks_list=None, *, jobs: int = 1) -> list[IoScalingPoint]:
        from repro.bench.sweep import run_ladder

        return run_ladder(self.run_point, nranks_list, jobs=jobs)
