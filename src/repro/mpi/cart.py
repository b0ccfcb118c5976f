"""Cartesian topologies (MPI_Cart_create workalike).

The paper decomposes the 3D Gray-Scott domain with "an MPI Cartesian
communicator" (Section 3.3); each subdomain exchanges ghost faces with
the neighbours ``shift`` reports. Rank ordering is row-major with the
last dimension varying fastest, matching MPI's convention. The pure
helpers :func:`cart_coords`, :func:`cart_rank` and :func:`cart_shift`
state that convention once; :class:`CartComm`, the ghost-exchange plan
builder and :mod:`repro.lint` all use them.
"""

from __future__ import annotations

import math

from repro.mpi.comm import Comm, PROC_NULL
from repro.util.errors import MPIError


def dims_create(nnodes: int, ndims: int, dims=None) -> tuple[int, ...]:
    """Balanced factorization of ``nnodes`` into ``ndims`` factors.

    Mirrors ``MPI_Dims_create``: zero entries in ``dims`` are free to
    choose, nonzero entries are fixed constraints. Free factors are as
    close to each other as possible, in non-increasing order.

    >>> dims_create(4096, 3)
    (16, 16, 16)
    >>> dims_create(12, 2)
    (4, 3)
    >>> dims_create(12, 3, dims=[0, 2, 0])
    (3, 2, 2)
    """
    if nnodes <= 0 or ndims <= 0:
        raise MPIError(f"invalid dims_create({nnodes}, {ndims})")
    dims = list(dims) if dims is not None else [0] * ndims
    if len(dims) != ndims:
        raise MPIError(f"dims has {len(dims)} entries, expected {ndims}")
    fixed = math.prod(d for d in dims if d > 0)
    if fixed and nnodes % fixed:
        raise MPIError(f"{nnodes} ranks not divisible by fixed dims {dims}")
    remaining = nnodes // max(fixed, 1)
    free = [i for i, d in enumerate(dims) if d == 0]
    if not free:
        if fixed != nnodes:
            raise MPIError(f"fixed dims {dims} do not multiply to {nnodes}")
        return tuple(dims)

    # prime-factorize the remaining count, then greedily assign the
    # largest factors to the currently-smallest dimension
    factors = []
    n = remaining
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    chosen = [1] * len(free)
    for factor in sorted(factors, reverse=True):
        smallest = min(range(len(chosen)), key=lambda i: chosen[i])
        chosen[smallest] *= factor
    chosen.sort(reverse=True)
    for slot, value in zip(free, chosen):
        dims[slot] = value
    return tuple(dims)


def cart_coords(rank: int, dims) -> tuple[int, ...]:
    """Cartesian coordinates of ``rank`` in a row-major grid of ``dims``."""
    out = []
    for dim in reversed(dims):
        out.append(rank % dim)
        rank //= dim
    return tuple(reversed(out))


def cart_rank(coords, dims, periods) -> int:
    """Rank at ``coords``; periodic wrap where allowed.

    Returns PROC_NULL for out-of-range coordinates on non-periodic
    dimensions (MPI would error; PROC_NULL composes better with
    shift-based exchange loops).
    """
    rank = 0
    for c, dim, periodic in zip(coords, dims, periods):
        if not 0 <= c < dim:
            if not periodic:
                return PROC_NULL
            c %= dim
        rank = rank * dim + c
    return rank


def cart_shift(rank: int, dims, periods, axis: int, disp: int = 1) -> tuple[int, int]:
    """(source, dest) for a shift along ``axis`` (MPI_Cart_shift).

    ``dest`` is the rank ``disp`` steps up the axis, ``source`` the
    rank the same distance down; PROC_NULL past non-periodic
    boundaries.
    """
    here = cart_coords(rank, dims)
    up = list(here)
    up[axis] += disp
    down = list(here)
    down[axis] -= disp
    return cart_rank(down, dims, periods), cart_rank(up, dims, periods)


class CartComm(Comm):
    """A communicator with an attached Cartesian topology."""

    def __init__(self, parent: Comm, dims, periods=None):
        dims = tuple(int(d) for d in dims)
        if math.prod(dims) != parent.size:
            raise MPIError(
                f"cartesian dims {dims} multiply to {math.prod(dims)}, "
                f"communicator has {parent.size} ranks"
            )
        if any(d <= 0 for d in dims):
            raise MPIError(f"cartesian dims must be positive: {dims}")
        periods = tuple(bool(p) for p in (periods or (False,) * len(dims)))
        if len(periods) != len(dims):
            raise MPIError(
                f"periods has {len(periods)} entries, dims has {len(dims)}"
            )
        super().__init__(parent.job, parent.rank, comm_id=parent._derive_id())
        self._adopt_group(parent)
        self.dims = dims
        self.periods = periods

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int | None = None) -> tuple[int, ...]:
        """Cartesian coordinates of ``rank`` (default: this rank)."""
        rank = self.rank if rank is None else rank
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} outside communicator of size {self.size}")
        return cart_coords(rank, self.dims)

    def rank_of(self, coords) -> int:
        """Rank at Cartesian ``coords`` (:func:`cart_rank`)."""
        coords = list(coords)
        if len(coords) != self.ndims:
            raise MPIError(f"coords {coords} have wrong dimensionality")
        return cart_rank(coords, self.dims, self.periods)

    def shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """(source, dest) for a shift along ``direction`` (:func:`cart_shift`)."""
        if not 0 <= direction < self.ndims:
            raise MPIError(
                f"shift direction {direction} outside {self.ndims} dimensions"
            )
        return cart_shift(self.rank, self.dims, self.periods, direction, disp)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CartComm(rank={self.rank}, dims={self.dims}, "
            f"coords={self.coords()}, periods={self.periods})"
        )
