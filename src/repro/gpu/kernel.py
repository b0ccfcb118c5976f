"""Kernel objects and launch semantics.

Kernels mirror the AMDGPU.jl programming model of the paper's Listing 2:
a scalar body is invoked once per workitem, computes its global index
from ``workgroup_idx``/``workgroup_dim``/``workitem_idx``, guards the
domain boundary, and reads/writes device arrays.

The scalar body is the only source of a kernel. The tracing JIT reads it
for the cost model and lint, and :meth:`Kernel.execute` runs it lowered
to C, compiled at its first launch and called without the GIL
(:mod:`repro.ir.lower`). That is the one execution path: a launch that
cannot be lowered raises, and nothing is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.frontier import GcdSpec
from repro.util.errors import LaunchError


@dataclass(frozen=True)
class LaunchConfig:
    """A 3D launch: ``grid`` workgroups of ``workgroup`` workitems each."""

    grid: tuple[int, int, int]
    workgroup: tuple[int, int, int]

    def __post_init__(self) -> None:
        for name, triple in (("grid", self.grid), ("workgroup", self.workgroup)):
            if len(triple) != 3:
                raise LaunchError(f"{name} must have 3 dimensions, got {triple}")
            if any((not isinstance(v, int)) or v <= 0 for v in triple):
                raise LaunchError(f"{name} dimensions must be positive ints: {triple}")

    @property
    def workgroup_size(self) -> int:
        wx, wy, wz = self.workgroup
        return wx * wy * wz

    @property
    def total_workitems(self) -> int:
        return self.workgroup_size * math.prod(self.grid)

    @property
    def global_extent(self) -> tuple[int, int, int]:
        """Workitems spanned along each launch dimension."""
        return tuple(g * w for g, w in zip(self.grid, self.workgroup))

    def validate(self, spec: GcdSpec) -> None:
        if self.workgroup_size > spec.max_workgroup_size:
            raise LaunchError(
                f"workgroup of {self.workgroup_size} workitems exceeds the "
                f"device limit of {spec.max_workgroup_size}"
            )
        for extent in self.global_extent:
            if extent > spec.max_workitems_per_dim * spec.max_workgroup_size:
                raise LaunchError(
                    f"launch extent {extent} exceeds device addressing limits"
                )

    @classmethod
    def for_domain(
        cls, shape: Sequence[int], workgroup: tuple[int, int, int]
    ) -> "LaunchConfig":
        """Cover ``shape`` workitems with ceil-divided workgroups.

        Mirrors the paper's launch setup, which grows problems by
        factors of 8 so every dimension stays within the 1,024-thread
        per-dimension placement limit (Section 4.1).
        """
        if len(shape) != 3:
            raise LaunchError(f"domain shape must be 3D, got {shape}")
        grid = tuple(-(-int(s) // w) for s, w in zip(shape, workgroup))
        return cls(grid=grid, workgroup=workgroup)


@dataclass(frozen=True)
class KernelContext:
    """Per-workitem identifiers, as AMDGPU.jl exposes them (0-based here).

    The launch x dimension is the fastest-varying workitem dimension.
    Listing 2 of the paper maps launch ``x`` to the *last* array index
    ``k`` and launch ``z`` to the first array index ``i``; kernels are
    free to pick their own mapping — the tracing JIT recovers the true
    memory access pattern either way.
    """

    workgroup_idx: tuple[int, int, int]
    workgroup_dim: tuple[int, int, int]
    workitem_idx: tuple[int, int, int]

    def global_idx(self) -> tuple[int, int, int]:
        """Global workitem index per launch dimension (x, y, z)."""
        return tuple(
            wg * dim + wi
            for wg, dim, wi in zip(
                self.workgroup_idx, self.workgroup_dim, self.workitem_idx
            )
        )


class Kernel:
    """A named GPU kernel: one scalar body, run lowered to C.

    Parameters
    ----------
    name:
        Kernel symbol name; appears in IR listings and profiler output.
    body:
        ``body(ctx: KernelContext, *args)``. Array arguments arrive as
        raw ``numpy`` arrays (or traced stand-ins during JIT tracing);
        scalar arguments pass through.
    uses_rand:
        Whether the body consumes per-workitem random numbers (the
        Gray-Scott noise term). Affects the codegen cost model.
    flops_per_workitem:
        Arithmetic intensity bookkeeping for the roofline model.
    """

    def __init__(
        self,
        name: str,
        body: Callable,
        *,
        uses_rand: bool = False,
        flops_per_workitem: int = 0,
    ) -> None:
        self.name = name
        self.body = body
        self.uses_rand = uses_rand
        self.flops_per_workitem = flops_per_workitem

    def execute(self, config: LaunchConfig, args, key=None) -> None:
        """Run the kernel functionally over the whole launch through its
        lowered function; ``key`` is its
        :meth:`repro.gpu.jit.TraceMemo.signature` if already known. A
        launch that cannot be lowered raises :class:`IrError` (or
        :class:`LaunchError` for its arrays) before anything is written."""
        from repro.gpu.jit import TraceMemo
        from repro.gpu.memory import DeviceArray
        from repro.ir.lower import run

        if key is None:
            key = TraceMemo.signature(self, args, config)
        run(self, config, [a.data if isinstance(a, DeviceArray) else a for a in args], key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r}, uses_rand={self.uses_rand})"

