#!/usr/bin/env python3
"""In-situ monitoring: watch global statistics without writing files.

Large campaigns reduce write frequency drastically (paper Section 3.4);
the day-to-day health check is an in-situ reduction: a handful of
global scalars per step, computed with the same collectives the solver
uses. This example runs a parallel simulation with an
:class:`~repro.core.insitu.InSituMonitor` attached and prints the V
time series plus the pattern's spectral wavelength at the end.

Usage::

    python examples/insitu_monitoring.py [nranks]
"""

import sys

import numpy as np

from repro import GrayScottSettings, Simulation
from repro.analysis.spectrum import dominant_wavelength
from repro.core.insitu import InSituMonitor
from repro.mpi.executor import run_spmd


def main() -> int:
    nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    settings = GrayScottSettings(L=32, steps=0, noise=0.002, F=0.018, k=0.055)
    steps = 400

    def worker(comm):
        sim = Simulation(settings, comm)
        monitor = InSituMonitor(every=50)
        sim.run(steps, on_step=monitor)
        return monitor, sim.domain.global_slices(), sim.interior("v")

    if nranks == 1:
        sim = Simulation(settings)
        monitor = InSituMonitor(every=50)
        sim.run(steps, on_step=monitor)
        full = sim.interior("v")
    else:
        # every rank's block of V, placed at its global slices
        blocks = run_spmd(worker, nranks, timeout=600)
        monitor = blocks[0][0]
        full = np.zeros(settings.shape, dtype=blocks[0][2].dtype)
        for _, where, block in blocks:
            full[where] = block
    plane = full[:, :, settings.L // 2]

    print(f"ran {steps} steps on {nranks} rank(s)\n")
    print(monitor.render("v"))
    wavelength = dominant_wavelength(plane)
    print(f"\ndominant pattern wavelength: {wavelength:.1f} cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
