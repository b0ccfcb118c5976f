"""Ghost-cell exchange (paper Listing 3) as a plan built once and run.

Per axis, every rank sends its high interior layer "up" and its low
interior layer "down", receiving into the opposite ghost layers. Faces
span the full extent of the other axes (ghosts included), so after the
three axis passes edges and corners are consistent too — one pass more
general than the 7-point stencil needs, as in GrayScott.jl.

:func:`exchange_plan` states one rank's exchange once, as a tuple of
:class:`ExchangeOp` (the typed ``isend``/``irecv``/``wait`` ops of the
xdsl MPI-dialect RFC, plus local ``copy`` and ``mirror``) whose basic-
slice face windows are resolved when the plan is built.
:func:`exchange_ghosts` runs a plan, and ``repro.lint`` checks the same
plans. A face whose neighbour is

- another rank travels as the window ``field[layer]`` itself, which the
  buffered send copies once in its memory order, and lands as
  ``field[ghost] = wire.reshape(face, order="F")``: the element order of
  the Listing 3 ``MPI_Type_vector`` face types of
  :meth:`~repro.core.domain.LocalDomain.face_specs`, which stay the
  declared wire layout;
- this rank (a periodic axis of extent 1, so every axis of a serial
  run) is a ``copy`` of the opposite interior layer, with no message,
  as MPI implementations do for self-sends;
- PROC_NULL (a non-periodic boundary) is a zero-flux wall: a ``mirror``
  of the adjacent interior layer, after every message.

``"sequential"`` plans run axis by axis: ``isend`` both layers, then a
blocking ``recv`` per ghost layer (sends are buffered, so two
neighbours that are one rank cannot deadlock). ``"overlapped"`` plans
post every ``irecv``, send every face, then ``wait``: all faces come
from the pre-exchange state, so edges and corners are stale, and each
ghost cell is written once, by the highest axis whose face covers it —
the bytes of unpacking the six faces in axis order.

As in the paper, exchange happens from CPU memory: the GPU path charges
D2H/H2D face copies to the device, since the study "did not experiment
with GPU-aware MPI" (Section 3.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.domain import LocalDomain
from repro.mpi.cart import CartComm, cart_rank, cart_shift
from repro.mpi.comm import PROC_NULL
from repro.util.errors import ConfigError, DatatypeError, TruncationError

MODES = ("sequential", "overlapped")


def _face_tag(axis: int, direction: int) -> int:
    """Tag of the message travelling along ``axis`` in ``direction``."""
    return 100 + axis * 2 + (0 if direction < 0 else 1)


def _layers(m: int, side: int) -> tuple[int, int]:
    """(send, ghost) layer indices of one face along an axis of extent ``m``."""
    return (1, 0) if side < 0 else (m - 2, m - 1)


def _window(axis: int, index: int, trim: tuple[int, ...] = ()) -> tuple:
    """Basic-slice window of layer ``index`` along ``axis``.

    Axes in ``trim`` exclude their ghost layers.
    """
    window = [slice(1, -1) if c in trim else slice(None) for c in range(3)]
    window[axis] = slice(index, index + 1)
    return tuple(window)


def face_windows(shape, axis: int, side: int) -> tuple[tuple, tuple]:
    """(send layer, ghost layer) windows of face ``(axis, side)``.

    ``shape`` is the ghosted field shape; ``side`` -1 is the low face
    (send layer 1, ghost 0), +1 the high face (``m-2``, ``m-1``).
    """
    send, ghost = _layers(shape[axis], side)
    return _window(axis, send), _window(axis, ghost)


@dataclass(frozen=True)
class ExchangeOp:
    """One step of one rank's ghost exchange."""

    kind: str  # "isend" | "irecv" | "recv" | "wait" | "copy" | "mirror"
    axis: int
    #: the face of this rank the op serves: -1 low, +1 high
    side: int
    peer: int = PROC_NULL
    tag: int = 0
    #: irecv/wait: index of the request the irecv posts
    request: int = -1
    #: isend/copy/mirror: the interior layer read
    layer: tuple = ()
    #: recv/wait/copy/mirror: the ghost layer written
    ghost: tuple = ()
    #: message ops: shape of the whole face on the wire
    face: tuple = ()
    #: recv/wait: the part of the received face written to ``ghost``
    keep: tuple = ()

    @property
    def count(self) -> int:
        """Elements on the wire (message ops)."""
        return math.prod(self.face)

    def land(self, field: np.ndarray, wire) -> None:
        """Write a received face into this op's ghost window."""
        if not isinstance(wire, np.ndarray) or wire.dtype != field.dtype:
            got = getattr(wire, "dtype", type(wire).__name__)
            raise DatatypeError(
                f"ghost face axis {self.axis} side {self.side:+d}: message "
                f"from rank {self.peer} is {got}, the field is {field.dtype}"
            )
        if wire.size != self.count:
            raise TruncationError(
                f"ghost face axis {self.axis} side {self.side:+d}: message "
                f"from rank {self.peer} has {wire.size} elements, the face "
                f"holds {self.count}"
            )
        field[self.ghost] = wire.reshape(self.face, order="F")[self.keep]


def exchange_plan(
    domain: LocalDomain, periods, mode: str = "sequential"
) -> tuple[ExchangeOp, ...]:
    """The ghost exchange of the rank that owns ``domain``.

    ``periods`` gives each axis's periodicity; ``mode`` is
    ``"sequential"`` or ``"overlapped"`` (see the module docstring). A
    serial run is the ``(1, 1, 1)`` plan: copies or mirrors only.
    """
    if mode not in MODES:
        raise ConfigError(f"exchange mode must be sequential|overlapped, got {mode!r}")
    shape = domain.ghosted_shape
    dims = domain.cart_dims
    rank = cart_rank(domain.coords, dims, periods)
    overlapped = mode == "overlapped"
    sequential, posts, sends, copies, waits, mirrors = [], [], [], [], [], []
    for axis in range(3):
        neighbour = dict(zip((-1, +1), cart_shift(rank, dims, periods, axis)))
        face = tuple(1 if c == axis else m for c, m in enumerate(shape))
        # overlapped writes skip the ghost layers of higher axes, which
        # those axes write (see the module docstring)
        trim = tuple(range(axis + 1, 3)) if overlapped else ()
        keep = tuple(slice(1, -1) if c in trim else slice(None) for c in range(3))
        axis_sends = []
        for side in (+1, -1):
            peer = neighbour[side]
            if peer not in (PROC_NULL, rank):
                layer, _ = face_windows(shape, axis, side)
                axis_sends.append(ExchangeOp(
                    "isend", axis, side, peer, _face_tag(axis, side),
                    layer=layer, face=face))
        axis_fills = []  # sequential: this axis's ghost fills, in order
        for side in (-1, +1):
            peer = neighbour[side]
            if peer == PROC_NULL:
                layer, ghost = face_windows(shape, axis, side)
                mirrors.append(ExchangeOp("mirror", axis, side, layer=layer, ghost=ghost))
                continue
            ghost = _window(axis, _layers(shape[axis], side)[1], trim)
            if peer == rank:
                opposite = _window(axis, _layers(shape[axis], -side)[0], trim)
                op = ExchangeOp("copy", axis, side, layer=opposite, ghost=ghost)
                (copies if overlapped else axis_fills).append(op)
                continue
            tag = _face_tag(axis, -side)
            if overlapped:
                request = len(posts)
                posts.append(ExchangeOp("irecv", axis, side, peer, tag,
                                        request=request, face=face))
                waits.append(ExchangeOp("wait", axis, side, peer, tag, request=request,
                                        ghost=ghost, face=face, keep=keep))
            else:
                axis_fills.append(ExchangeOp("recv", axis, side, peer, tag,
                                             ghost=ghost, face=face, keep=keep))
        sequential += axis_sends + axis_fills
        sends += axis_sends
    if overlapped:
        # a copy reads cells that only lower axes' writes touch, so
        # copies run in descending axis order, before every wait
        return (*posts, *sends, *reversed(copies), *waits, *mirrors)
    return (*sequential, *mirrors)


def exchange_ghosts(
    cart: CartComm | None,
    field: np.ndarray,
    plan: tuple[ExchangeOp, ...],
) -> None:
    """Run one rank's exchange ``plan`` on ``field``.

    ``cart`` may be ``None`` for plans without messages (serial runs).
    """
    requests = []
    for op in plan:
        kind = op.kind
        if kind == "isend":
            cart.isend(field[op.layer], op.peer, op.tag)
        elif kind == "recv":
            op.land(field, cart.recv(op.peer, op.tag)[0])
        elif kind == "irecv":
            requests.append(cart.irecv(op.peer, op.tag))
        elif kind == "wait":
            op.land(field, requests[op.request].wait(cart.job.timeout).payload)
        else:  # copy, mirror
            field[op.ghost] = field[op.layer]
