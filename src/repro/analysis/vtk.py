"""VTK XML ImageData export (.vti) — the VTX/ParaView claim made real.

The paper stores FIDES/VTX visualization schema attributes so ParaView
can open the ADIOS2 dataset directly (Section 3.4). We cannot ship
ParaView readers, but we can emit the equivalent artifact: a VTK XML
ImageData file holding a step's U/V fields as cell data, which ParaView
(or any VTK build) opens natively. ASCII encoding keeps the writer
dependency-free and the output inspectable.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.util.errors import ReproError


def _ascii_data_array(name: str, data: np.ndarray, indent: str) -> str:
    flat = np.asarray(data).ravel(order="F")
    body = " ".join(f"{v:.9g}" for v in flat)
    return (
        f'{indent}<DataArray type="Float64" Name="{name}" '
        f'format="ascii" NumberOfComponents="1">\n'
        f"{indent}  {body}\n"
        f"{indent}</DataArray>"
    )


def write_vti(
    fields: dict[str, np.ndarray],
    path,
    *,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Path:
    """Write 3D cell-data fields as a VTK XML ImageData file.

    All fields must share one shape; the image extent is that shape in
    cells (VTK wants point extents, i.e. shape + 1).
    """
    if not fields:
        raise ReproError("write_vti needs at least one field")
    shapes = {f.shape for f in fields.values()}
    if len(shapes) != 1:
        raise ReproError(f"fields have differing shapes: {shapes}")
    shape = shapes.pop()
    if len(shape) != 3:
        raise ReproError(f"write_vti expects 3D fields, got shape {shape}")

    n0, n1, n2 = shape
    extent = f"0 {n0} 0 {n1} 0 {n2}"
    first = next(iter(fields))
    lines = [
        '<?xml version="1.0"?>',
        '<VTKFile type="ImageData" version="1.0" byte_order="LittleEndian">',
        f'  <ImageData WholeExtent="{extent}" '
        f'Origin="{origin[0]} {origin[1]} {origin[2]}" '
        f'Spacing="{spacing[0]} {spacing[1]} {spacing[2]}">',
        f'    <Piece Extent="{extent}">',
        f'      <CellData Scalars="{first}">',
    ]
    for name, data in fields.items():
        lines.append(_ascii_data_array(name, data, "        "))
    lines += [
        "      </CellData>",
        "    </Piece>",
        "  </ImageData>",
        "</VTKFile>",
    ]
    target = Path(path)
    target.write_text("\n".join(lines) + "\n")
    return target
