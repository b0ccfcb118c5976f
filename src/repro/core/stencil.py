"""Gray-Scott stencil kernels (paper Listing 2 and Eqs. 2-3).

Each kernel is written once, as a scalar per-workitem body in the shape
of the paper's Listing 2 (launch axis x maps to array index k, z to i).
That body is both analysed and run: the tracing JIT reads it for the
cost model and lint, and :meth:`repro.gpu.kernel.Kernel.execute` runs
it lowered to C and compiled (:mod:`repro.ir.lower`). The CPU backend
and the simulated GPU execute the same compiled function.

All fields carry one ghost layer per side (shape ``n + 2`` per axis)
and are Fortran-ordered like Julia arrays. The noise term uses the
counter-based RNG of :mod:`repro.gpu.rand` keyed by *global* cell
coordinates, so results are independent of the domain decomposition.
Arithmetic is float64 whatever the storage precision, with one rounding
at the store.
"""

from __future__ import annotations

from repro.core.params import GrayScottParams
from repro.gpu.kernel import Kernel, KernelContext
from repro.gpu.rand import counter_uniform

ONE_SIXTH = 1.0 / 6.0


def laplacian_at(var, i: int, j: int, k: int):
    """The paper's ``_laplacian``: normalized 7-point operator (Eq. 3)."""
    l = (
        var[i - 1, j, k]
        + var[i + 1, j, k]
        + var[i, j - 1, k]
        + var[i, j + 1, k]
        + var[i, j, k - 1]
        + var[i, j, k + 1]
        - 6.0 * var[i, j, k]
    )
    return l * ONE_SIXTH


# ---------------------------------------------------------------------------
# GPU-simulator kernels (Listing 2)
# ---------------------------------------------------------------------------


def _gs_body(
    ctx: KernelContext,
    u, v, u_temp, v_temp,
    sizes, Du, Dv, F, K, noise, dt,
    seed, step, g0, g1, g2,
):
    """Scalar body of the application kernel, as in Listing 2.

    The launch's fastest dimension x maps to the *last* array index k
    (and z to the first index i), the paper's AMDGPU.jl mapping.
    """
    x, y, z = ctx.global_idx()
    k, j, i = x, y, z
    if (
        k == 0 or k >= sizes[2] - 1
        or j == 0 or j >= sizes[1] - 1
        or i == 0 or i >= sizes[0] - 1
    ):
        return
    u_ijk = u[i, j, k]
    v_ijk = v[i, j, k]
    r = counter_uniform(seed, step, i - 1 + g0, j - 1 + g1, k - 1 + g2)
    du = (
        Du * laplacian_at(u, i, j, k)
        - u_ijk * (v_ijk * v_ijk)
        + F * (1.0 - u_ijk)
        + noise * r
    )
    dv = (
        Dv * laplacian_at(v, i, j, k)
        + u_ijk * (v_ijk * v_ijk)
        - (F + K) * v_ijk
    )
    u_temp[i, j, k] = u_ijk + du * dt
    v_temp[i, j, k] = v_ijk + dv * dt


def make_gray_scott_kernel() -> Kernel:
    """The 2-variable application kernel (Table 2/3 'application')."""
    return Kernel(
        "_kernel_gray_scott",
        _gs_body,
        uses_rand=True,
        flops_per_workitem=33,
    )


def _lap_body(ctx: KernelContext, var, var_temp, sizes, D, dt):
    """1-variable diffusion kernel, no randomness (Table 2/3 middle column)."""
    x, y, z = ctx.global_idx()
    k, j, i = x, y, z
    if (
        k == 0 or k >= sizes[2] - 1
        or j == 0 or j >= sizes[1] - 1
        or i == 0 or i >= sizes[0] - 1
    ):
        return
    var_temp[i, j, k] = var[i, j, k] + D * laplacian_at(var, i, j, k) * dt


def make_laplacian_kernel() -> Kernel:
    """The 1-variable no-random diagnostic kernel."""
    return Kernel(
        "_kernel_laplacian_1var",
        _lap_body,
        uses_rand=False,
        flops_per_workitem=10,
    )


def kernel_args(
    u, v, u_temp, v_temp,
    params: GrayScottParams,
    *,
    seed: int,
    step: int,
    global_start: tuple[int, int, int] = (0, 0, 0),
) -> tuple:
    """Assemble the Listing 2 argument tuple for the application kernel."""
    shape = getattr(u, "shape")
    return (
        u, v, u_temp, v_temp,
        tuple(shape),
        params.Du, params.Dv, params.F, params.k, params.noise, params.dt,
        seed, step, *global_start,
    )
