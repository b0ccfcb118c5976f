"""Readers for the image and VTK files the analysis stage writes.

Production only writes these formats
(:func:`repro.analysis.imageio.write_pgm`,
:func:`repro.analysis.vtk.write_vti`); the tests read them back to
check what was written.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from repro.util.errors import ReproError


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM back into a ``(ny, nx)`` uint8 array."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P5":
        raise ReproError(f"{path}: not a binary PGM (magic {parts[0]!r})")
    nx, ny = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ReproError(f"{path}: unsupported maxval {maxval}")
    pixels = np.frombuffer(parts[3][: nx * ny], dtype=np.uint8)
    if pixels.size != nx * ny:
        raise ReproError(f"{path}: truncated pixel data")
    return pixels.reshape(ny, nx)


def read_vti_field(path, name: str) -> np.ndarray:
    """Parse one field back out of an ASCII .vti."""
    root = ET.parse(path).getroot()
    image = root.find("ImageData")
    if image is None:
        raise ReproError(f"{path}: not an ImageData VTK file")
    extent = [int(v) for v in image.get("WholeExtent").split()]
    shape = (extent[1], extent[3], extent[5])
    for array in image.iter("DataArray"):
        if array.get("Name") == name:
            values = np.array(array.text.split(), dtype=np.float64)
            return values.reshape(shape, order="F")
    raise ReproError(f"{path}: no DataArray named {name!r}")
