"""Stencil oracles: explicit loops and a hand-written whole-array step.

Production runs one stencil path, the kernel body lowered to C by
:mod:`repro.ir.lower`. These hand-kept implementations of the same
update (Eqs. 2a/2b) are what the tests hold it against:

- :func:`step_reference` — plain Python loops over interior cells
  (slow, small grids only);
- :func:`step_vectorized` — whole-array NumPy whose term order matches
  the loops exactly, so the two agree bitwise;
- :func:`uniform_field` — the noise term over a whole grid.

Both compute in float64 whatever the storage precision and round once
at the store.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import GrayScottParams
from repro.core.stencil import laplacian_at
from repro.gpu.rand import counter_uniform
from repro.util.errors import ConfigError
from tests.oracles.rand import axis_keys, uniform_into


def uniform_field(
    seed: int, step: int, shape: tuple[int, int, int], offset: tuple[int, int, int]
) -> np.ndarray:
    """``counter_uniform(seed, step, i, j, k)`` over a whole grid.

    ``offset`` maps local array indices to global cell coordinates. The
    hash runs k-major in C order, so the returned ``.T`` view is
    Fortran-ordered like the fields.
    """
    kmajor = tuple(reversed(shape))
    keys = [seed, step] + [
        axis_keys(start, n, 2 - axis, 3)
        for axis, (start, n) in enumerate(zip(offset, shape))
    ]
    return uniform_into(keys, np.empty(kmajor), np.empty(kmajor)).T


def check_ghosted(field: np.ndarray, name: str = "field") -> None:
    """Validate a ghosted local field (3D, >= 3 cells/axis, F-order)."""
    if field.ndim != 3:
        raise ConfigError(f"{name} must be 3D, got shape {field.shape}")
    if any(s < 3 for s in field.shape):
        raise ConfigError(
            f"{name} of shape {field.shape} too small for one ghost layer per side"
        )
    if not field.flags.f_contiguous:
        raise ConfigError(f"{name} must be Fortran-ordered (column-major, like Julia)")


def laplacian_field(var: np.ndarray) -> np.ndarray:
    """Vectorized Eq. 3 over the interior of a ghosted field.

    Term order matches :func:`laplacian_at` exactly (bitwise parity).
    """
    c = var[1:-1, 1:-1, 1:-1]
    l = (
        var[:-2, 1:-1, 1:-1]
        + var[2:, 1:-1, 1:-1]
        + var[1:-1, :-2, 1:-1]
        + var[1:-1, 2:, 1:-1]
        + var[1:-1, 1:-1, :-2]
        + var[1:-1, 1:-1, 2:]
        - 6.0 * c
    )
    return l * (1.0 / 6.0)


def step_reference(
    u: np.ndarray,
    v: np.ndarray,
    u_new: np.ndarray,
    v_new: np.ndarray,
    params: GrayScottParams,
    *,
    seed: int,
    step: int,
    global_start: tuple[int, int, int] = (0, 0, 0),
) -> None:
    """Ground-truth interior update by explicit loops (Eqs. 2a/2b).

    ``global_start`` is the global coordinate of the first *interior*
    cell of this subdomain; it keys the decomposition-invariant noise.
    """
    check_ghosted(u, "u")
    for name, arr in (("v", v), ("u_new", u_new), ("v_new", v_new)):
        if arr.shape != u.shape:
            raise ConfigError(f"{name} shape {arr.shape} != u shape {u.shape}")
    Du, Dv, F, K = params.Du, params.Dv, params.F, params.k
    noise, dt = params.noise, params.dt
    g0, g1, g2 = global_start
    n0, n1, n2 = u.shape
    u = u.astype(np.float64, copy=False)
    v = v.astype(np.float64, copy=False)
    for k in range(1, n2 - 1):
        for j in range(1, n1 - 1):
            for i in range(1, n0 - 1):
                u_ijk = u[i, j, k]
                v_ijk = v[i, j, k]
                r = counter_uniform(
                    seed, step, i - 1 + g0, j - 1 + g1, k - 1 + g2
                )
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
                u_new[i, j, k] = u_ijk + du * dt
                v_new[i, j, k] = v_ijk + dv * dt


def step_vectorized(
    u: np.ndarray,
    v: np.ndarray,
    u_new: np.ndarray,
    v_new: np.ndarray,
    params: GrayScottParams,
    *,
    seed: int,
    step: int,
    global_start: tuple[int, int, int] = (0, 0, 0),
) -> None:
    """Whole-array interior update; bitwise-matches :func:`step_reference`."""
    check_ghosted(u, "u")
    Du, Dv, F, K = params.Du, params.Dv, params.F, params.k
    noise, dt = params.noise, params.dt
    interior = tuple(s - 2 for s in u.shape)
    u64 = u.astype(np.float64, copy=False)
    v64 = v.astype(np.float64, copy=False)
    uc = u64[1:-1, 1:-1, 1:-1]
    vc = v64[1:-1, 1:-1, 1:-1]
    r = uniform_field(seed, step, interior, global_start)
    reaction = uc * (vc * vc)
    du = Du * laplacian_field(u64) - reaction + F * (1.0 - uc) + noise * r
    dv = Dv * laplacian_field(v64) + reaction - (F + K) * vc
    u_new[1:-1, 1:-1, 1:-1] = uc + du * dt
    v_new[1:-1, 1:-1, 1:-1] = vc + dv * dt
