"""Halo-pricing oracle: the ghost-exchange cost summed face by face.

Production prices every rank of a slice at once
(:meth:`repro.mpi.netmodel.HaloExchangeModel.slice_step_seconds`).
This is the loop it replaced: for each direction, the two neighbours
``cart_shift`` reports, each priced through the placement-aware
:meth:`repro.mpi.netmodel.NetModel.p2p_seconds`.
"""

from __future__ import annotations

from repro.bench import calibration as cal
from repro.mpi.cart import cart_shift
from repro.mpi.comm import PROC_NULL
from repro.mpi.netmodel import HaloCostBreakdown, HaloExchangeModel


def rank_step_breakdown(model: HaloExchangeModel, rank: int) -> HaloCostBreakdown:
    """Modeled exchange time for one rank, one step."""
    periods = (model.periodic,) * len(model.cart_dims)
    pack = transfer = staging = 0.0
    for direction in range(len(model.cart_dims)):
        nbytes = model.face_bytes(direction) * model.nvars
        for neighbor in cart_shift(rank, model.cart_dims, periods, direction):
            if neighbor == PROC_NULL:
                continue
            if not model.gpu_aware:
                # pack + unpack on the host (strided Type_vector copies)
                pack += 2 * nbytes / cal.PACK_BYTES_PER_S
                # GPU->CPU before send, CPU->GPU after receive
                staging += 2 * nbytes / model.machine.node.gpu_cpu_bytes_per_s
            transfer += model.net.p2p_seconds(rank, neighbor, nbytes)
    return HaloCostBreakdown(pack, transfer, staging)
