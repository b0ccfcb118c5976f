"""Image export of 2D slices: the Figure 2/9 artifacts as real files.

No plotting stack is assumed; PGM (grayscale) and PPM (color) are
plain binary formats every image viewer and ParaView can open. The
color path applies a viridis-like piecewise-linear colormap.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.util.errors import ReproError

#: piecewise-linear approximation of viridis: (position, (r, g, b))
_VIRIDIS_STOPS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)


def _normalize(plane: np.ndarray, value_range=None) -> np.ndarray:
    if plane.ndim != 2:
        raise ReproError(f"image export expects a 2D plane, got {plane.shape}")
    data = np.asarray(plane, dtype=np.float64)
    lo, hi = value_range if value_range else (float(data.min()), float(data.max()))
    span = hi - lo
    if span <= 0:
        return np.zeros_like(data)
    return np.clip((data - lo) / span, 0.0, 1.0)


def write_pgm(plane: np.ndarray, path, *, value_range=None) -> Path:
    """Write a grayscale binary PGM (P5) of a 2D plane."""
    norm = _normalize(plane, value_range)
    pixels = (norm * 255).round().astype(np.uint8)
    ny, nx = pixels.shape
    target = Path(path)
    with open(target, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).tobytes())
    return target


def colormap(norm: np.ndarray) -> np.ndarray:
    """Map normalized [0,1] values to (..., 3) uint8 RGB (viridis-like)."""
    norm = np.asarray(norm, dtype=np.float64)
    positions = np.array([p for p, _ in _VIRIDIS_STOPS])
    channels = np.array([c for _, c in _VIRIDIS_STOPS], dtype=np.float64)
    rgb = np.empty((*norm.shape, 3))
    for ch in range(3):
        rgb[..., ch] = np.interp(norm, positions, channels[:, ch])
    return rgb.round().astype(np.uint8)


def write_ppm(plane: np.ndarray, path, *, value_range=None) -> Path:
    """Write a color binary PPM (P6) of a 2D plane."""
    pixels = colormap(_normalize(plane, value_range))
    ny, nx, _ = pixels.shape
    target = Path(path)
    with open(target, "wb") as fh:
        fh.write(f"P6\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).tobytes())
    return target


def snapshot_dataset(
    dataset, outdir, *, field: str = "V", axis: int = 2, color: bool = True
) -> list[Path]:
    """Write one image per output step of a dataset (a Figure 2 strip).

    A common value range across steps keeps frames comparable.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lo, hi = dataset.minmax(field)
    written = []
    for step in dataset.steps:
        plane = dataset.slice2d(field, step=step, axis=axis)
        name = f"{field.lower()}_step{step:04d}." + ("ppm" if color else "pgm")
        writer = write_ppm if color else write_pgm
        written.append(writer(plane, outdir / name, value_range=(lo, hi)))
    return written
