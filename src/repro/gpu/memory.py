"""Device memory: column-major device arrays and a modeled GCD.

Julia arrays are column-major; the paper stresses that "the fastest
index, being the first one, should be structured to avoid splitting
across threads on the GPU" (Section 4). :class:`DeviceArray` therefore
stores Fortran-ordered NumPy data, and the cache model treats axis 0 as
the contiguous direction.

:class:`Device` tracks allocations against the modeled 64 GiB of HBM,
owns the simulated clock, and times host<->device copies with the
Infinity-Fabric CPU-GPU bandwidth from Table 1 (36 GB/s) — the copies
visible in the paper's Figure 5 trace.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.frontier import GcdSpec, NodeSpec
from repro.gpu.backends import get_backend
from repro.gpu.jit import JitCompiler, TraceMemo
from repro.gpu.kernel import LaunchConfig
from repro.gpu.perf import RooflineModel
from repro.observe import trace as observe
from repro.util.errors import DeviceMemoryError, GpuError
from repro.util.timers import SimClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.rocprof import Profiler


class DeviceArray:
    """A column-major array resident on a simulated device.

    The backing store is a real ``numpy.ndarray`` (order ``'F'``) so the
    functional layer computes exact results; the wrapper exists to (a)
    account the allocation against device HBM, (b) forbid silent mixing
    of host and device data in kernel argument lists, and (c) carry the
    name used in IR listings and profiler output.
    """

    _ids = itertools.count()

    def __init__(self, device: "Device", data: np.ndarray, name: str | None = None):
        if not data.flags.f_contiguous:
            raise GpuError("DeviceArray requires Fortran-ordered backing data")
        self.device = device
        self.data = data
        self.name = name or f"darr{next(self._ids)}"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def itemsize(self) -> int:
        return self.data.itemsize

    def fill(self, value: float) -> None:
        self.data[...] = value

    def copy_to_host(self) -> np.ndarray:
        """Synchronous D2H copy; advances the device clock."""
        return self.device.to_host(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceArray({self.name}, shape={self.shape}, dtype={self.dtype}, "
            f"device={self.device.name})"
        )


class Device:
    """One simulated MI250x GCD.

    Functionally it executes kernels via :meth:`launch`; performance-wise
    it advances a :class:`~repro.util.timers.SimClock` by modeled kernel
    durations and copy times, and reports every event to an attached
    :class:`~repro.gpu.rocprof.Profiler`.
    """

    def __init__(
        self,
        spec: GcdSpec | None = None,
        *,
        name: str = "gcd0",
        backend: str = "julia",
        profiler: "Profiler | None" = None,
        exact_execution: bool = True,
        aot: bool = False,
        counter_mode: str = "analytic",
    ) -> None:
        self.spec = spec or GcdSpec()
        self.name = name
        self.backend = get_backend(backend)
        self.profiler = profiler
        self.clock = SimClock()
        self.allocated_bytes = 0
        #: If False, launches only run the performance model (used by the
        #: Frontier-scale benchmarks where a real 1024^3 array would not
        #: fit in host memory, let alone be computed in Python).
        self.exact_execution = exact_execution
        #: Ahead-of-time mode (the paper notes "Julia's ahead-of-time
        #: mechanism was not explored in this study", Section 5.2):
        #: kernels are still traced/compiled, but the one-time compile
        #: cost is treated as paid offline (PackageCompiler.jl-style
        #: system image) and never charged to the run clock.
        self.aot = aot
        self.jit = JitCompiler(self.backend)
        self.roofline = RooflineModel(
            self.spec, self.backend, counter_mode=counter_mode
        )
        # Table 1: GPU-to-CPU Infinity Fabric at 36 GB/s.
        self.copy_bytes_per_s = NodeSpec().gpu_cpu_bytes_per_s

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def _account(self, nbytes: int) -> None:
        if self.allocated_bytes + nbytes > self.spec.hbm_bytes:
            raise DeviceMemoryError(
                f"allocation of {nbytes} B exceeds HBM capacity "
                f"({self.allocated_bytes} B of {self.spec.hbm_bytes} B in use)"
            )
        self.allocated_bytes += nbytes

    def zeros(
        self, shape: tuple[int, ...], dtype=np.float64, name: str | None = None
    ) -> DeviceArray:
        self._account(int(np.prod(shape)) * np.dtype(dtype).itemsize)
        return DeviceArray(self, np.zeros(shape, dtype=dtype, order="F"), name)

    def to_device(self, host: np.ndarray, name: str | None = None) -> DeviceArray:
        """H2D copy: allocates and copies, advancing the modeled clock."""
        self._account(host.nbytes)
        arr = DeviceArray(self, np.asfortranarray(host), name)
        self.record_transfer("H2D", host.nbytes)
        return arr

    def to_host(self, darr: DeviceArray) -> np.ndarray:
        """D2H copy of a whole array; advances the modeled clock."""
        if darr.device is not self:
            raise GpuError("array belongs to a different device")
        self.record_transfer("D2H", darr.nbytes)
        return np.ascontiguousarray(darr.data)

    def free(self, darr: DeviceArray) -> None:
        """Release an allocation (the NumPy buffer dies with the object)."""
        if darr.device is not self:
            raise GpuError("array belongs to a different device")
        self.allocated_bytes -= darr.nbytes
        if self.allocated_bytes < 0:  # double free
            self.allocated_bytes = 0
            raise GpuError(f"double free of {darr.name}")
        darr.data = np.empty(0, order="F")

    def record_transfer(self, kind: str, nbytes: int) -> None:
        seconds = nbytes / self.copy_bytes_per_s
        start = self.clock.now
        self.clock.advance(seconds)
        if self.profiler is not None:
            self.profiler.record_copy(self.name, kind, nbytes, start, seconds)
        tracer = observe.active()
        if tracer is not None:
            tracer.add_span(
                f"memcpy.{kind}",
                cat="gpu",
                clock=observe.SIM,
                process=self.name,
                thread="copy",
                start=start,
                seconds=seconds,
                args={"bytes": nbytes, "kind": kind},
            )
            tracer.metrics.counter(
                "gpu.copy.bytes", device=self.name, kind=kind
            ).inc(nbytes)
            tracer.metrics.counter(
                "gpu.copy.count", device=self.name, kind=kind
            ).inc()

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------
    def launch(self, kernel, grid, workgroup, args) -> "LaunchCost":
        """Launch ``kernel`` over ``grid`` workgroups of ``workgroup`` size.

        Executes the kernel functionally (unless ``exact_execution`` is
        off), charges the modeled duration — including one-time JIT
        compilation on the first launch of each kernel — and returns the
        :class:`~repro.gpu.perf.LaunchCost`. The launch's signature keys
        the compiled kernel, its lowering and its cost, computed once.
        """
        config = LaunchConfig(grid=grid, workgroup=workgroup)
        config.validate(self.spec)

        key = TraceMemo.signature(kernel, args, config)
        compiled, compile_seconds = self.jit.compile(kernel, args, config, key)
        if self.aot:
            compile_seconds = 0.0
        tracer = observe.active()
        if compile_seconds > 0.0:
            start = self.clock.now
            self.clock.advance(compile_seconds)
            if self.profiler is not None:
                self.profiler.record_compile(
                    self.name, kernel.name, start, compile_seconds
                )
            if tracer is not None:
                tracer.add_span(
                    f"jit.{kernel.name}",
                    cat="gpu",
                    clock=observe.SIM,
                    process=self.name,
                    thread="jit",
                    start=start,
                    seconds=compile_seconds,
                    args={"kernel": kernel.name, "backend": self.backend.name},
                )
                tracer.metrics.counter(
                    "gpu.jit.compiles", device=self.name
                ).inc()
                tracer.metrics.histogram("gpu.jit.seconds").observe(
                    compile_seconds
                )

        if self.exact_execution:
            kernel.execute(config, args, key)

        cost = self.roofline.launch_cost(compiled, config, args, key)
        start = self.clock.now
        self.clock.advance(cost.seconds)
        if self.profiler is not None:
            self.profiler.record_kernel(self.name, kernel.name, start, cost, config)
        if tracer is not None:
            tracer.add_span(
                kernel.name,
                cat="gpu",
                clock=observe.SIM,
                process=self.name,
                thread="kernel",
                start=start,
                seconds=cost.seconds,
                args={
                    "bytes": cost.total_bytes,
                    "workgroup_size": config.workgroup_size,
                },
            )
            tracer.metrics.counter(
                "gpu.kernel.launches", device=self.name, kernel=kernel.name
            ).inc()
            tracer.metrics.histogram(
                "gpu.kernel.seconds", kernel=kernel.name
            ).observe(cost.seconds)
        return cost
