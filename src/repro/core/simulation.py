"""The Gray-Scott time-stepping driver.

One :class:`Simulation` instance is one rank's view of the run: its
local ghosted fields, its Cartesian neighbourhood, and (in GPU mode)
its simulated GCD. Construction is collective when a communicator is
passed; serial runs pass ``comm=None``.

Backends (``settings.backend``):

- ``"cpu"`` — the kernel's compiled C function (:mod:`repro.ir.lower`),
  called directly;
- ``"julia"`` / ``"hip"`` — the simulated-GPU path: the same update
  runs through :class:`repro.gpu.memory.Device` kernel launches, which
  also produces modeled kernel timings, rocprof counters, and JIT
  compile events. Fields live in host memory shared with the device
  wrapper (the *timing* of H2D/D2H face staging is modeled, matching
  the paper's host-memory MPI exchanges).

Determinism: the noise field is keyed by (seed, step, global cell), so
any decomposition and any backend produce bitwise-identical fields.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.domain import LocalDomain
from repro.core.exchange import exchange_ghosts, exchange_plan
from repro.core.params import GrayScottParams
from repro.core.settings import GrayScottSettings
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import Device, DeviceArray
from repro.gpu.rocprof import Profiler
from repro.mpi.cart import CartComm, dims_create
from repro.mpi.comm import Comm
from repro.observe import trace as observe
from repro.util.errors import ConfigError
from repro.util.timers import Stopwatch


@dataclass
class StepTimings:
    """Modeled per-section simulated time (GPU mode only)."""

    kernel_seconds: float = 0.0
    transfer_seconds: float = 0.0
    compile_seconds: float = 0.0


class Simulation:
    """One rank's Gray-Scott solver instance."""

    def __init__(
        self,
        settings: GrayScottSettings,
        comm: Comm | None = None,
        *,
        cart_dims: tuple[int, int, int] | None = None,
        profiler: Profiler | None = None,
    ):
        self.settings = settings
        self.params: GrayScottParams = settings.params()
        self.seed = settings.seed
        self.dtype = np.dtype(settings.precision)
        self.step_count = 0
        #: real wall time per section ("exchange", "compute"), this rank
        self.wall = Stopwatch()

        # --- decomposition -------------------------------------------------
        periodic = settings.boundary == "periodic"
        if comm is not None:
            dims = cart_dims or dims_create(comm.size, 3)
            self.cart: CartComm | None = comm.create_cart(
                dims, periods=(periodic,) * 3
            )
            coords = self.cart.coords()
        else:
            dims = cart_dims or (1, 1, 1)
            if any(d != 1 for d in dims):
                raise ConfigError(f"serial run cannot use cart dims {dims}")
            self.cart = None
            coords = (0, 0, 0)
        self.domain = LocalDomain.for_coords(settings.shape, dims, coords)
        self.exchange_plan = exchange_plan(self.domain, (periodic,) * 3)

        # --- fields ----------------------------------------------------------
        self.u = self.domain.allocate_field(self.dtype)
        self.v = self.domain.allocate_field(self.dtype)
        self.u_new = self.domain.allocate_field(self.dtype)
        self.v_new = self.domain.allocate_field(self.dtype)

        # --- backend ----------------------------------------------------------
        self.backend = settings.backend
        self.device: Device | None = None
        self._kernel = make_gray_scott_kernel()
        self._dargs: tuple[DeviceArray, ...] | None = None
        if self.backend != "cpu":
            if self.dtype != np.float64:
                raise ConfigError(
                    "the simulated GPU backends compute in float64 (as the "
                    "paper's kernels do); use precision='float64' or "
                    "backend='cpu'"
                )
            name = f"gcd{comm.rank if comm else 0}"
            self.device = Device(name=name, backend=self.backend, profiler=profiler)
            self._wrap_device_fields()

        self.initialize()

    # ------------------------------------------------------------------
    @classmethod
    def from_settings(
        cls, settings: GrayScottSettings, comm: Comm | None = None, **kwargs
    ) -> "Simulation":
        return cls(settings, comm, **kwargs)

    def _wrap_device_fields(self) -> None:
        assert self.device is not None
        self._dfields = {
            "u": DeviceArray(self.device, self.u, "u"),
            "v": DeviceArray(self.device, self.v, "v"),
            "u_new": DeviceArray(self.device, self.u_new, "u_temp"),
            "v_new": DeviceArray(self.device, self.v_new, "v_temp"),
        }

    # ------------------------------------------------------------------
    # initial condition
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """GrayScott.jl's initial condition: U=1, V=0 everywhere except a
        centred seed box of extent L/8 per axis where (U, V) = (0.25, 0.33).

        Computed from global coordinates, so every decomposition
        produces the same global state.
        """
        self.step_count = 0
        self.u[...] = 1.0
        self.v[...] = 0.0
        L = self.settings.shape
        half = [max(n // 16, 1) for n in L]
        lo = [n // 2 - h for n, h in zip(L, half)]
        hi = [n // 2 + h for n, h in zip(L, half)]
        # intersect the global seed box with this rank's interior
        for field, value in ((self.u, 0.25), (self.v, 0.33)):
            slices = []
            empty = False
            for axis in range(3):
                a = max(lo[axis], self.domain.start[axis])
                b = min(hi[axis], self.domain.start[axis] + self.domain.count[axis])
                if a >= b:
                    empty = True
                    break
                # +1 converts interior-global to ghosted-local indices
                slices.append(
                    slice(a - self.domain.start[axis] + 1, b - self.domain.start[axis] + 1)
                )
            if not empty:
                field[tuple(slices)] = value
        self.exchange()

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def exchange(self) -> None:
        """Refresh ghost layers of both fields by running the exchange plan.

        On the GPU backends the exchange is staged through host memory
        (the paper did not use GPU-aware MPI, Section 3.3), so the face
        D2H/H2D copies are charged to the device either way.
        """
        if self.device is not None:
            self._record_face_staging("D2H")
        exchange_ghosts(self.cart, self.u, self.exchange_plan)
        exchange_ghosts(self.cart, self.v, self.exchange_plan)
        if self.device is not None:
            self._record_face_staging("H2D")

    def _record_face_staging(self, kind: str) -> None:
        """Model the GPU<->CPU copies around a host-memory MPI exchange."""
        assert self.device is not None
        m0, m1, m2 = self.domain.ghosted_shape
        itemsize = self.dtype.itemsize
        face_bytes = 2 * (m1 * m2 + m0 * m2 + m0 * m1) * itemsize  # 6 faces
        self.device.record_transfer(kind, 2 * face_bytes)  # both variables

    def _observe_span(self, name: str) -> "nullcontext | object":
        """A wall-clock tracer span on this rank's core lane (or a no-op)."""
        tracer = observe.active()
        if tracer is None:
            return nullcontext()
        rank = self.cart.rank if self.cart is not None else 0
        return tracer.span(
            name,
            cat="core",
            process=f"rank{rank}",
            thread="core",
            args={"step": self.step_count},
        )

    def step(self) -> None:
        """Advance one time step (exchange + stencil update + swap)."""
        with self.wall.section("exchange"), self._observe_span("step.exchange"):
            self.exchange()
        with self.wall.section("compute"), self._observe_span("step.compute"):
            self._launch_step()
        self.u, self.u_new = self.u_new, self.u
        self.v, self.v_new = self.v_new, self.v
        if self.device is not None:
            self._wrap_device_fields()
        self.step_count += 1
        tracer = observe.active()
        if tracer is not None:
            rank = self.cart.rank if self.cart is not None else 0
            tracer.metrics.counter("core.steps", rank=rank).inc()

    def _launch_step(self) -> None:
        """One application-kernel launch: on the device, or on the host."""
        m0, m1, m2 = self.domain.ghosted_shape
        wgs = self.device.backend.workgroup_size if self.device else m2
        config = LaunchConfig.for_domain((m2, m1, m0), (min(wgs, m2), 1, 1))
        d = self._dfields if self.device is not None else {
            "u": self.u, "v": self.v, "u_new": self.u_new, "v_new": self.v_new,
        }
        args = kernel_args(
            d["u"], d["v"], d["u_new"], d["v_new"], self.params,
            seed=self.seed, step=self.step_count,
            global_start=self.domain.start,
        )
        if self.device is None:
            self._kernel.execute(config, args)
        else:
            self.device.launch(self._kernel, config.grid, config.workgroup, args)

    def run(self, steps: int | None = None, *, on_step=None) -> None:
        """Run ``steps`` steps (default: settings.steps), with a hook.

        ``on_step(sim)`` is invoked after every step; output/checkpoint
        policy lives in :mod:`repro.core.workflow`.
        """
        total = steps if steps is not None else self.settings.steps
        for _ in range(total):
            self.step()
            if on_step is not None:
                on_step(self)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def interior(self, which: str = "u") -> np.ndarray:
        field = {"u": self.u, "v": self.v}[which]
        return self.domain.interior(field)

    def local_minmax(self, which: str = "u") -> tuple[float, float]:
        data = self.interior(which)
        return float(data.min()), float(data.max())

    def global_minmax(self, which: str = "u") -> tuple[float, float]:
        lo, hi = self.local_minmax(which)
        if self.cart is None:
            return lo, hi
        return (
            self.cart.allreduce(lo, "min"),
            self.cart.allreduce(hi, "max"),
        )

    def global_mean(self, which: str = "u") -> float:
        data = self.interior(which)
        local_sum = float(data.sum())
        cells = int(np.prod(self.settings.shape))
        if self.cart is None:
            return local_sum / cells
        return self.cart.allreduce(local_sum, "sum") / cells

    def gather_global(self, which: str = "u") -> np.ndarray | None:
        """Assemble the full global field on rank 0 (None elsewhere)."""
        interior = np.asfortranarray(self.interior(which))
        if self.cart is None:
            return interior.copy(order="F")
        pieces = self.cart.gather((self.domain.global_slices(), interior), root=0)
        if self.cart.rank != 0:
            return None
        out = np.zeros(self.settings.shape, dtype=self.dtype, order="F")
        for slices, block in pieces:
            out[slices] = block
        return out

    def timings(self) -> StepTimings:
        """Modeled device-time breakdown (zeros for the CPU backend)."""
        if self.device is None or self.device.profiler is None:
            return StepTimings()
        t = StepTimings()
        for event in self.device.profiler.events:
            if event.device != self.device.name:
                continue
            if event.kind == "kernel":
                t.kernel_seconds += event.seconds
            elif event.kind == "copy":
                t.transfer_seconds += event.seconds
            elif event.kind == "compile":
                t.compile_seconds += event.seconds
        return t
