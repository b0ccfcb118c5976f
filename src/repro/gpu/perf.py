"""Roofline timing of kernel launches.

The Gray-Scott stencil is memory-bound (Section 3.2: 7 reads + 1 write
per variable per cell), so a launch's modeled duration is

    duration = modeled_traffic_bytes / (HBM peak x backend efficiency)

where the traffic comes from the TCC working-set model fed with the
stencil offsets the tracing JIT recovered, and the efficiency is the
backend's calibrated codegen factor (Tables 2-3). Both of the paper's
bandwidth metrics fall out (Eq. 5a/5b):

- ``effective_bandwidth`` — Eq. 4 minimal data movement / duration,
- ``total_bandwidth`` — modeled FETCH_SIZE + WRITE_SIZE / duration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.frontier import GcdSpec
from repro.gpu.backends import BackendProfile
from repro.gpu.cache import (
    StencilTrafficModel,
    TrafficEstimate,
    effective_fetch_cells,
    effective_write_cells,
    seven_point_offsets,
)
from repro.gpu.jit import CompiledKernel
from repro.gpu.kernel import LaunchConfig
from repro.util.errors import GpuError


@dataclass(frozen=True)
class LaunchCost:
    """Everything the performance model concluded about one launch."""

    kernel_name: str
    seconds: float
    fetch_bytes: float
    write_bytes: float
    effective_fetch_bytes: float
    effective_write_bytes: float
    tcc_hits: float
    tcc_misses: float
    flops: float

    @property
    def total_bytes(self) -> float:
        return self.fetch_bytes + self.write_bytes

    @property
    def effective_bytes(self) -> float:
        return self.effective_fetch_bytes + self.effective_write_bytes

    @property
    def total_bandwidth(self) -> float:
        """Eq. 5b: rocprof-style bandwidth, bytes/s."""
        return self.total_bytes / self.seconds

    @property
    def effective_bandwidth(self) -> float:
        """Eq. 5a: effective (minimal-movement) bandwidth, bytes/s."""
        return self.effective_bytes / self.seconds


class RooflineModel:
    """Memory-bound launch costing for one device + backend.

    TCC counters come from the working-set model
    (:class:`~repro.gpu.cache.StencilTrafficModel`), which works at any
    problem size; the exact LRU simulator it is checked against is
    :class:`~repro.gpu.cache.TraceCacheSim`.
    """

    def __init__(self, spec: GcdSpec, backend: BackendProfile):
        self.spec = spec
        self.backend = backend
        self.traffic_model = StencilTrafficModel(spec)
        #: launch signature -> its LaunchCost under this model
        self._costs: dict[tuple, LaunchCost] = {}

    def _array_shapes(self, compiled: CompiledKernel, args) -> dict[str, tuple]:
        """Map trace array names to the shapes/itemsizes of launch args."""
        shapes: dict[str, tuple] = {}
        for position, name in compiled.trace.array_names_by_position.items():
            if position >= len(args):
                raise GpuError(
                    f"kernel {compiled.name} was traced with an array at "
                    f"argument {position} but the launch passed {len(args)} args"
                )
            arg = args[position]
            from repro.gpu.memory import DeviceArray

            data = arg.data if isinstance(arg, DeviceArray) else arg
            if not isinstance(data, np.ndarray):
                raise GpuError(
                    f"argument {position} of {compiled.name} must be an array "
                    f"(traced as {name!r}), got {type(arg).__name__}"
                )
            shapes[name] = (tuple(data.shape), data.itemsize)
        return shapes

    def traffic(self, compiled: CompiledKernel, args) -> TrafficEstimate:
        """TCC traffic for this launch's actual array shapes."""
        shapes = self._array_shapes(compiled, args)
        loads = compiled.trace.offsets_by_array()
        stores = compiled.trace.stores_by_array()
        ref_shape = None
        itemsize = 8
        for name in list(loads) + list(stores):
            if name in shapes:
                ref_shape, itemsize = shapes[name]
                break
        if ref_shape is None:
            raise GpuError(f"kernel {compiled.name} accesses no traced arrays")
        if len(ref_shape) != 3:
            raise GpuError(
                f"performance model supports 3D kernels; {compiled.name} "
                f"touches an array of shape {ref_shape}"
            )
        return self.traffic_model.estimate(ref_shape, itemsize, loads, stores)

    def effective_sizes(self, compiled: CompiledKernel, args) -> tuple[float, float]:
        """Paper Eq. 4a/4b effective fetch and write bytes for a launch."""
        shapes = self._array_shapes(compiled, args)
        loads = compiled.trace.offsets_by_array()
        stores = compiled.trace.stores_by_array()
        seven = seven_point_offsets()
        fetch = 0.0
        for name, offsets in loads.items():
            shape, itemsize = shapes[name]
            if offsets == seven:
                fetch += effective_fetch_cells(shape) * itemsize
            else:
                # non-stencil arrays (e.g. a lookup table): read once
                fetch += float(np.prod(shape)) * itemsize
        write = 0.0
        for name, offsets in stores.items():
            shape, itemsize = shapes[name]
            if offsets == {(0, 0, 0)}:
                write += effective_write_cells(shape) * itemsize
            else:
                write += len(offsets) * float(np.prod(shape)) * itemsize
        return fetch, write

    def launch_cost(
        self, compiled: CompiledKernel, config: LaunchConfig, args, key=None
    ) -> LaunchCost:
        """The modeled cost of one launch, priced once per ``key``.

        ``key`` is the launch's :meth:`~repro.gpu.jit.TraceMemo.signature`,
        which fixes every input the cost reads: kernel source and flags,
        per-argument dtype and shape, and the launch config.
        """
        if key in self._costs:
            return self._costs[key]
        traffic = self.traffic(compiled, args)
        eff_fetch, eff_write = self.effective_sizes(compiled, args)
        efficiency = self.backend.effective_efficiency(compiled.kernel.uses_rand)
        achieved = self.spec.hbm_peak_bytes_per_s * efficiency
        seconds = traffic.total_bytes / achieved
        flops = compiled.trace.flops * config.total_workitems
        cost = LaunchCost(
            kernel_name=compiled.name,
            seconds=seconds,
            fetch_bytes=traffic.fetch_bytes,
            write_bytes=traffic.write_bytes,
            effective_fetch_bytes=eff_fetch,
            effective_write_bytes=eff_write,
            tcc_hits=traffic.tcc_hits,
            tcc_misses=traffic.tcc_misses,
            flops=flops,
        )
        if key is not None:
            self._costs[key] = cost
        return cost
