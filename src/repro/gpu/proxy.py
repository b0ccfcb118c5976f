"""Analytic launch costs for Frontier-scale problems.

The paper's per-GPU workload is 1024^3 cells — 8.6 GB per field, far
beyond what the functional simulator should allocate. The performance
models never needed the data, only the access pattern; this module
builds :class:`~repro.gpu.perf.LaunchCost` results directly from the
known Gray-Scott kernel structure (the same offsets the tracing JIT
recovers from the real kernels — asserted equal in
``tests/gpu/test_proxy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.frontier import GcdSpec
from repro.gpu.backends import BackendProfile, get_backend
from repro.gpu.cache import (
    StencilTrafficModel,
    effective_fetch_cells,
    effective_write_cells,
    seven_point_offsets,
)
from repro.gpu.perf import LaunchCost
from repro.util.errors import GpuError

#: Kernel variants evaluated in Tables 2-3.
VARIANTS = ("application", "1var_norand")


@dataclass(frozen=True)
class KernelShape:
    """Structural description of one stencil kernel variant."""

    name: str
    nvars: int
    uses_rand: bool
    #: floating-point ops per workitem (from the traced IR; bookkeeping)
    flops_per_cell: int


_KERNEL_SHAPES = {
    # the paper's 2-variable application kernel (Listing 2)
    "application": KernelShape("gray_scott", nvars=2, uses_rand=True, flops_per_cell=33),
    # 1-variable, no-random diagnostic variant (Table 2/3 middle column)
    "1var_norand": KernelShape("laplacian_1var", nvars=1, uses_rand=False, flops_per_cell=14),
}


def kernel_access_pattern(nvars: int) -> tuple[dict, dict]:
    """(loads_by_array, stores_by_array) for an ``nvars`` stencil kernel."""
    names = ["u", "v", "w", "x"][:nvars]
    loads = {name: seven_point_offsets() for name in names}
    stores = {f"{name}_temp": {(0, 0, 0)} for name in names}
    return loads, stores


def grayscott_launch_cost(
    shape: tuple[int, int, int],
    backend: str | BackendProfile,
    *,
    variant: str = "application",
    spec: GcdSpec | None = None,
    itemsize: int = 8,
) -> LaunchCost:
    """Modeled cost of one Gray-Scott stencil launch on one GCD.

    ``shape`` is the per-GCD local grid (the paper's weak scaling keeps
    it at 1024^3). ``variant`` selects the Table 2/3 kernel flavour.
    """
    try:
        kshape = _KERNEL_SHAPES[variant]
    except KeyError:
        raise GpuError(
            f"unknown kernel variant {variant!r}; available: {sorted(_KERNEL_SHAPES)}"
        ) from None
    spec = spec or GcdSpec()
    backend = get_backend(backend)
    loads, stores = kernel_access_pattern(kshape.nvars)

    traffic = StencilTrafficModel(spec).estimate(shape, itemsize, loads, stores)
    eff_fetch = kshape.nvars * effective_fetch_cells(shape) * itemsize
    eff_write = kshape.nvars * effective_write_cells(shape) * itemsize

    efficiency = backend.effective_efficiency(kshape.uses_rand)
    achieved = spec.hbm_peak_bytes_per_s * efficiency
    seconds = traffic.total_bytes / achieved
    cells = int(np.prod(shape))
    return LaunchCost(
        kernel_name=f"{kshape.name}[{backend.name}]",
        seconds=seconds,
        fetch_bytes=traffic.fetch_bytes,
        write_bytes=traffic.write_bytes,
        effective_fetch_bytes=eff_fetch,
        effective_write_bytes=eff_write,
        tcc_hits=traffic.tcc_hits,
        tcc_misses=traffic.tcc_misses,
        flops=kshape.flops_per_cell * cells,
    )


def jit_compile_seconds(backend: str | BackendProfile, *, ir_lines: int = 70) -> float:
    """Modeled one-time JIT compile cost for the application kernel.

    ``ir_lines`` defaults to the traced Gray-Scott kernel's IR length
    (the real trace is used where available; this proxy serves the
    Frontier-scale models).
    """
    backend = get_backend(backend)
    if backend.base_compile_seconds == 0.0:
        return 0.0
    return backend.base_compile_seconds + backend.compile_seconds_per_ir_line * ir_lines
