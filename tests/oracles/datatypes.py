"""Datatype oracles: pack/unpack as a plain gather/scatter.

Production :func:`repro.mpi.datatypes.pack`/``unpack`` copy regular
types through a strided view and fall back to a fancy-index gather for
the rest. These read the type's definition directly, the element
offsets of :meth:`~repro.mpi.datatypes.Datatype.element_offsets`, and
index the flat buffer with them.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.datatypes import Datatype, flat_view


def pack_reference(
    arr: np.ndarray, datatype: Datatype, offset_elements: int = 0
) -> np.ndarray:
    """The datatype's elements of ``arr``, in type order."""
    return flat_view(arr)[datatype.element_offsets() + offset_elements].copy()


def unpack_reference(
    arr: np.ndarray, datatype: Datatype, wire, offset_elements: int = 0
) -> None:
    """Scatter ``wire`` into ``arr`` at the datatype's elements."""
    offsets = datatype.element_offsets() + offset_elements
    flat_view(arr)[offsets] = np.asarray(wire).reshape(-1)
