"""Global-field oracle: a rank-decomposed field assembled on rank 0.

Tests compare a parallel run against a serial one cell for cell; no
command needs the whole field in one place, so the assembly lives
here.
"""

from __future__ import annotations

import numpy as np

from repro.core.simulation import Simulation


def gather_global(sim: Simulation, which: str = "u") -> np.ndarray | None:
    """The full global ``which`` field on rank 0 (None elsewhere).

    A serial run copies its interior once, into the result; a parallel
    one gathers every rank's interior (the send copies it) and places
    each block at its global slices.
    """
    interior = sim.interior(which)
    if sim.cart is None:
        return np.array(interior, order="F")
    pieces = sim.cart.gather((sim.domain.global_slices(), interior), root=0)
    if sim.cart.rank != 0:
        return None
    out = np.zeros(sim.settings.shape, dtype=sim.dtype, order="F")
    for slices, block in pieces:
        out[slices] = block
    return out
