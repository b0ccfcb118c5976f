"""Solver verification against exact discrete solutions.

With the reaction and noise terms off (F = k = n = 0), Eq. (2) reduces
to forward-Euler diffusion under the normalized 7-point Laplacian of
Eq. (3). On a periodic grid that operator is diagonal in Fourier space:
mode (p, q, r) has eigenvalue

    lambda(p, q, r) = -1 + (cos(2 pi p / n0) + cos(2 pi q / n1)
                            + cos(2 pi r / n2)) / 3

so the *exact* discrete evolution of any initial field is

    u_hat(t) = u_hat(0) * (1 + dt * D * lambda)^t .

:func:`exact_diffusion_evolution` computes that; the verification tests
require the time-stepping solver to match it to machine precision over
many steps — a correctness oracle independent of the solver's own code
path, not merely self-consistency between two implementations.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigError


def laplacian_eigenvalues(shape: tuple[int, int, int]) -> np.ndarray:
    """Eigenvalues of the normalized periodic 7-point Laplacian (Eq. 3)."""
    if len(shape) != 3:
        raise ConfigError(f"expected a 3D shape, got {shape}")
    n0, n1, n2 = shape
    c0 = np.cos(2 * np.pi * np.fft.fftfreq(n0))[:, None, None]
    c1 = np.cos(2 * np.pi * np.fft.fftfreq(n1))[None, :, None]
    c2 = np.cos(2 * np.pi * np.fft.fftfreq(n2))[None, None, :]
    return -1.0 + (c0 + c1 + c2) / 3.0


def exact_diffusion_evolution(
    field0: np.ndarray, D: float, dt: float, steps: int
) -> np.ndarray:
    """Exact forward-Euler diffusion of ``field0`` after ``steps`` steps.

    Exact for the *discrete* scheme (not the PDE): every Fourier mode is
    scaled by its per-step growth factor raised to ``steps``.
    """
    if field0.ndim != 3:
        raise ConfigError(f"expected a 3D field, got shape {field0.shape}")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    growth = 1.0 + dt * D * laplacian_eigenvalues(field0.shape)
    spectrum = np.fft.fftn(np.asarray(field0, dtype=np.float64))
    evolved = np.fft.ifftn(spectrum * growth**steps)
    return np.asfortranarray(evolved.real)


def diffusion_error(
    solver_field: np.ndarray, field0: np.ndarray, D: float, dt: float, steps: int
) -> float:
    """Max-norm error of a solver state vs. the exact discrete solution."""
    exact = exact_diffusion_evolution(field0, D, dt, steps)
    return float(np.abs(np.asarray(solver_field) - exact).max())
