"""Domain decomposition and ghost-cell geometry.

The global L x L x L grid is block-decomposed over a 3D Cartesian
communicator (paper Section 3.3, Figure 4). Each rank owns an interior
block plus one ghost layer per side. This module computes the block
geometry (supporting non-divisible sizes via balanced remainders) and
builds the per-face ``MPI_Type_vector`` datatypes of Listing 3.

Face datatypes for a ghosted, Fortran-ordered local array of shape
``(m0, m1, m2)`` (``mi = ni + 2``):

- axis 0 (contiguous axis): a plane ``i = const`` is ``m1*m2`` single
  elements strided ``m0`` apart — ``Type_vector(m1*m2, 1, m0)``;
- axis 1: a plane ``j = const`` is ``m2`` contiguous runs of ``m0``
  elements strided ``m0*m1`` apart — ``Type_vector(m2, m0, m0*m1)``;
- axis 2: a plane ``k = const`` is one contiguous run of ``m0*m1``.

Faces span the *full* extent of the other axes (ghosts included): the
exchange runs axis-by-axis, so edge and corner ghost cells arrive
correctly after the three passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.datatypes import DOUBLE, FLOAT, BaseDatatype, Datatype, VectorDatatype
from repro.util.errors import ConfigError

_BASE_TYPES = {
    np.dtype(np.float64): DOUBLE,
    np.dtype(np.float32): FLOAT,
}


def base_datatype_for(dtype) -> BaseDatatype:
    """The elementary MPI datatype matching a field dtype."""
    try:
        return _BASE_TYPES[np.dtype(dtype)]
    except KeyError:
        raise ConfigError(
            f"no MPI base datatype for field dtype {np.dtype(dtype)}"
        ) from None


def block_range(n_global: int, nblocks: int, index: int) -> tuple[int, int]:
    """(start, count) of block ``index`` when splitting ``n_global`` cells.

    Balanced distribution: the first ``n_global % nblocks`` blocks get
    one extra cell.
    """
    if nblocks <= 0 or not 0 <= index < nblocks:
        raise ConfigError(f"bad block index {index} of {nblocks}")
    base, extra = divmod(n_global, nblocks)
    if base == 0:
        raise ConfigError(
            f"cannot split {n_global} cells into {nblocks} blocks (empty block)"
        )
    start = index * base + min(index, extra)
    count = base + (1 if index < extra else 0)
    return start, count


@dataclass(frozen=True)
class FaceSpec:
    """One exchangeable face: datatype + element offsets into the array."""

    datatype: Datatype
    #: offset of the interior boundary layer to *send*
    send_offset: int
    #: offset of the ghost layer to *receive into*
    recv_offset: int


@dataclass(frozen=True)
class LocalDomain:
    """One rank's block of the global grid."""

    global_shape: tuple[int, int, int]
    cart_dims: tuple[int, int, int]
    coords: tuple[int, int, int]
    start: tuple[int, int, int]
    count: tuple[int, int, int]

    @classmethod
    def for_coords(
        cls,
        global_shape: tuple[int, int, int],
        cart_dims: tuple[int, int, int],
        coords: tuple[int, int, int],
    ) -> "LocalDomain":
        start, count = [], []
        for n, dim, c in zip(global_shape, cart_dims, coords):
            s, cnt = block_range(n, dim, c)
            start.append(s)
            count.append(cnt)
        return cls(
            global_shape=tuple(global_shape),
            cart_dims=tuple(cart_dims),
            coords=tuple(coords),
            start=tuple(start),
            count=tuple(count),
        )

    @property
    def ghosted_shape(self) -> tuple[int, int, int]:
        return tuple(c + 2 for c in self.count)

    def allocate_field(self, dtype=np.float64) -> np.ndarray:
        """A zeroed ghosted local field in Fortran order."""
        return np.zeros(self.ghosted_shape, dtype=dtype, order="F")

    def interior(self, field: np.ndarray) -> np.ndarray:
        """View of the interior (no ghosts) of a ghosted field."""
        if field.shape != self.ghosted_shape:
            raise ConfigError(
                f"field shape {field.shape} != ghosted shape {self.ghosted_shape}"
            )
        return field[1:-1, 1:-1, 1:-1]

    def global_slices(self) -> tuple[slice, slice, slice]:
        """Where this block sits in the global array."""
        return tuple(slice(s, s + c) for s, c in zip(self.start, self.count))

    # -- face datatypes (Listing 3) ------------------------------------
    def face_specs(self, dtype=np.float64) -> dict[tuple[int, int], FaceSpec]:
        """{(axis, ±1): FaceSpec} for all six faces of the ghosted array.

        ``(axis, +1)`` is the *high* face (send layer ``m-2``, ghost
        ``m-1``); ``(axis, -1)`` the low face (send layer 1, ghost 0).
        ``dtype`` selects the elementary datatype of the field.
        """
        base = base_datatype_for(dtype)
        m0, m1, m2 = self.ghosted_shape
        specs: dict[tuple[int, int], FaceSpec] = {}
        for axis in range(3):
            if axis == 0:
                datatype = VectorDatatype(m1 * m2, 1, m0, base=base).commit()
                layer_stride = 1
            elif axis == 1:
                datatype = VectorDatatype(m2, m0, m0 * m1, base=base).commit()
                layer_stride = m0
            else:
                datatype = VectorDatatype(1, m0 * m1, m0 * m1, base=base).commit()
                layer_stride = m0 * m1
            extent = self.ghosted_shape[axis]
            specs[(axis, -1)] = FaceSpec(
                datatype=datatype,
                send_offset=1 * layer_stride,
                recv_offset=0,
            )
            specs[(axis, +1)] = FaceSpec(
                datatype=datatype,
                send_offset=(extent - 2) * layer_stride,
                recv_offset=(extent - 1) * layer_stride,
            )
        return specs
