"""MPI derived datatypes over NumPy buffers.

The paper's ghost surfaces are not memory-contiguous, so GrayScott.jl
"defines a new strided vector type by using MPI_Datatypes and
MPI_Type_vector" (Section 3.3). This module reproduces that machinery:
a :class:`Datatype` describes a set of element offsets inside a flat
buffer; :func:`pack` gathers those elements into a contiguous wire
buffer and :func:`unpack` scatters a wire buffer back.

Offsets are in *elements* of the base dtype, applied to the target
array's memory-order flattening (Fortran order for the solver's
column-major fields), exactly how MPI applies a datatype to a base
address.

Like MPI, a derived datatype must be committed before use — using an
uncommitted type raises :class:`~repro.util.errors.DatatypeError`
(tested by the failure-injection suite).
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import DatatypeError


def flat_view(arr: np.ndarray) -> np.ndarray:
    """A 1-D view of ``arr`` in its own memory order (no copy).

    Raises :class:`DatatypeError` for non-contiguous arrays — MPI
    datatypes address raw memory, which a sliced view does not own.
    """
    if arr.flags.f_contiguous and arr.ndim > 1:
        return arr.reshape(-1, order="F")
    if arr.flags.c_contiguous:
        return arr.reshape(-1, order="C")
    if arr.flags.f_contiguous:
        return arr.reshape(-1, order="F")
    raise DatatypeError(
        "datatype pack/unpack requires a contiguous base array; "
        "pass the full field, not a sliced view"
    )


class Datatype:
    """Base class: a committed datatype yields element offsets."""

    def __init__(self, base: np.dtype):
        self.base = np.dtype(base)
        self._committed = False
        self._offsets: np.ndarray | None = None

    # -- required interface -------------------------------------------
    def _build_offsets(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def extent_elements(self) -> int:
        """Span from first to one-past-last element (MPI extent)."""
        offsets = self.element_offsets()
        return int(offsets.max()) + 1 if offsets.size else 0

    @property
    def size_elements(self) -> int:
        """Number of base elements of actual data (MPI size)."""
        return int(self.element_offsets().size)

    @property
    def size_bytes(self) -> int:
        return self.size_elements * self.base.itemsize

    def commit(self) -> "Datatype":
        """Finalize the type (MPI_Type_commit); returns self for chaining."""
        self._offsets = np.asarray(self._build_offsets(), dtype=np.int64)
        if self._offsets.size and self._offsets.min() < 0:
            raise DatatypeError("datatype produced negative element offsets")
        self._committed = True
        return self

    def free(self) -> None:
        """Release the type (MPI_Type_free); further use raises."""
        self._committed = False
        self._offsets = None

    def element_offsets(self) -> np.ndarray:
        if not self._committed or self._offsets is None:
            raise DatatypeError(
                f"{type(self).__name__} used before commit() (or after free())"
            )
        return self._offsets

    def _strided_spec(self) -> tuple[int, int, int] | None:
        """(count, blocklength, stride) when this type is a regular
        strided layout over an elementary base, else ``None``.

        A non-None spec lets :func:`pack`/:func:`unpack` copy through a
        NumPy strided view instead of a fancy-index gather/scatter —
        the hot path for every ghost face. Composite/irregular types
        return ``None`` and take the general gather path.
        """
        return None


class BaseDatatype(Datatype):
    """A named elementary type (MPI_DOUBLE and friends)."""

    def __init__(self, name: str, dtype):
        super().__init__(dtype)
        self.name = name
        self.commit()

    def _build_offsets(self) -> np.ndarray:
        return np.zeros(1, dtype=np.int64)

    def _strided_spec(self) -> tuple[int, int, int] | None:
        return (1, 1, 1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BaseDatatype({self.name})"


DOUBLE = BaseDatatype("MPI_DOUBLE", np.float64)
FLOAT = BaseDatatype("MPI_FLOAT", np.float32)
INT32 = BaseDatatype("MPI_INT32_T", np.int32)
INT64 = BaseDatatype("MPI_INT64_T", np.int64)


class VectorDatatype(Datatype):
    """MPI_Type_vector: ``count`` blocks of ``blocklength`` elements,
    block starts ``stride`` elements apart.

    This is the type GrayScott.jl builds for each non-contiguous ghost
    face (Listing 3). The convenience constructors in
    :mod:`repro.core.domain` choose count/blocklength/stride per face.
    """

    def __init__(
        self, count: int, blocklength: int, stride: int, base: Datatype = DOUBLE
    ):
        if count < 0 or blocklength < 0:
            raise DatatypeError(
                f"negative count/blocklength: {count}/{blocklength}"
            )
        if count > 1 and stride < blocklength:
            raise DatatypeError(
                f"stride {stride} < blocklength {blocklength}: blocks overlap"
            )
        super().__init__(base.base)
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.inner = base

    def _build_offsets(self) -> np.ndarray:
        inner = self.inner.element_offsets()
        extent = self.inner.extent_elements
        blocks = np.arange(self.count, dtype=np.int64)[:, None, None] * self.stride
        elems = np.arange(self.blocklength, dtype=np.int64)[None, :, None]
        return (
            (blocks + elems) * extent + inner[None, None, :]
        ).reshape(-1)

    def _strided_spec(self) -> tuple[int, int, int] | None:
        if self.inner.size_elements == 1 and self.inner.extent_elements == 1:
            return (self.count, self.blocklength, self.stride)
        return None


def _strided_window(
    flat: np.ndarray, datatype: Datatype, offset_elements: int
) -> np.ndarray | None:
    """A (count, blocklength) strided view over the type's elements.

    Returns ``None`` when the type has no regular strided layout (the
    caller falls back to the gather path). Bounds and commit checks
    raise the same :class:`DatatypeError` messages as the gather path,
    so the two paths are behaviourally interchangeable.
    """
    spec = datatype._strided_spec()
    if spec is None:
        return None
    datatype.element_offsets()  # commit check (raises if freed/uncommitted)
    count, blocklength, stride = spec
    if count == 0 or blocklength == 0:
        return flat[:0].reshape(0, 1)
    first = offset_elements
    last = offset_elements + (count - 1) * stride + blocklength - 1
    if first < 0 or last >= flat.size:
        raise DatatypeError(
            f"datatype (offset {offset_elements}) reaches outside the buffer "
            f"of {flat.size} elements"
        )
    itemsize = flat.itemsize
    return np.lib.stride_tricks.as_strided(
        flat[first:],
        shape=(count, blocklength),
        strides=(stride * itemsize, itemsize),
    )


def _check_base(flat: np.ndarray, datatype: Datatype) -> None:
    if flat.dtype != datatype.base:
        raise DatatypeError(
            f"buffer dtype {flat.dtype} does not match datatype base "
            f"{datatype.base}"
        )


def pack(
    arr: np.ndarray,
    datatype: Datatype,
    *,
    offset_elements: int = 0,
) -> np.ndarray:
    """Gather the datatype's elements from ``arr`` into a wire buffer.

    Regular vector/contiguous types (every ghost face) copy through a
    NumPy strided view; types with no regular layout, such as nested
    vectors, fall back to a fancy-index gather over
    :meth:`Datatype.element_offsets`.
    """
    flat = flat_view(arr)
    _check_base(flat, datatype)
    window = _strided_window(flat, datatype, offset_elements)
    if window is not None:
        out = np.empty(window.size, dtype=flat.dtype)
        out.reshape(window.shape)[...] = window
        return out
    offsets = datatype.element_offsets() + offset_elements
    if offsets.size and (offsets.min() < 0 or offsets.max() >= flat.size):
        raise DatatypeError(
            f"datatype (offset {offset_elements}) reaches outside the buffer "
            f"of {flat.size} elements"
        )
    return flat[offsets].copy()


def unpack(
    arr: np.ndarray,
    datatype: Datatype,
    wire: np.ndarray,
    *,
    offset_elements: int = 0,
) -> None:
    """Scatter a wire buffer into ``arr`` through the datatype.

    The inverse of :func:`pack`: one strided assignment for regular
    types, a fancy-index store otherwise.
    """
    flat = flat_view(arr)
    _check_base(flat, datatype)
    wire = np.asarray(wire)
    window = _strided_window(flat, datatype, offset_elements)
    if window is not None:
        if wire.size != window.size:
            raise DatatypeError(
                f"wire buffer has {wire.size} elements, datatype "
                f"describes {window.size}"
            )
        window[...] = wire.reshape(window.shape)
        return
    offsets = datatype.element_offsets() + offset_elements
    if wire.size != offsets.size:
        raise DatatypeError(
            f"wire buffer has {wire.size} elements, datatype describes "
            f"{offsets.size}"
        )
    if offsets.size and (offsets.min() < 0 or offsets.max() >= flat.size):
        raise DatatypeError(
            f"datatype (offset {offset_elements}) reaches outside the buffer "
            f"of {flat.size} elements"
        )
    flat[offsets] = wire.reshape(-1)
