"""Spectral analysis of Gray-Scott patterns.

Pearson patterns have a characteristic wavelength set by the diffusion
lengths; the radial power spectrum of a concentration slice makes it
quantitative. This is the kind of derived analysis the paper's Jupyter
stage exists for — computed from the same datasets the solver wrote.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ReproError


def radial_power_spectrum(plane: np.ndarray, *, bins: int | None = None):
    """Radially averaged 2D power spectrum of a (periodic) slice.

    Returns ``(k, power)`` where ``k`` is the wavenumber in cycles per
    domain length and ``power[j]`` the mean squared FFT magnitude over
    the annulus around ``k[j]``. The DC component is excluded.
    """
    if plane.ndim != 2:
        raise ReproError(f"spectrum expects a 2D plane, got shape {plane.shape}")
    ny, nx = plane.shape
    if min(ny, nx) < 4:
        raise ReproError(f"plane {plane.shape} too small for a spectrum")
    data = np.asarray(plane, dtype=np.float64)
    data = data - data.mean()
    power2d = np.abs(np.fft.fftn(data)) ** 2

    ky = np.fft.fftfreq(ny) * ny
    kx = np.fft.fftfreq(nx) * nx
    kmag = np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)

    kmax = min(ny, nx) // 2
    bins = bins or kmax
    edges = np.linspace(0.5, kmax + 0.5, bins + 1)
    which = np.digitize(kmag.ravel(), edges)
    power = np.zeros(bins)
    counts = np.zeros(bins)
    flat = power2d.ravel()
    for idx in range(1, bins + 1):
        mask = which == idx
        if mask.any():
            power[idx - 1] = flat[mask].mean()
            counts[idx - 1] = mask.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    valid = counts > 0
    return centers[valid], power[valid]


def dominant_wavelength(plane: np.ndarray) -> float:
    """Characteristic pattern wavelength in cells (domain / peak k).

    Returns ``inf`` for structureless (flat) planes.
    """
    k, power = radial_power_spectrum(plane)
    if power.max() <= 0:
        return float("inf")
    k_peak = k[int(np.argmax(power))]
    if k_peak <= 0:
        return float("inf")
    return min(plane.shape) / k_peak
