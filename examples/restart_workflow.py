#!/usr/bin/env python3
"""Checkpoint/restart: interrupt a campaign and continue it bitwise.

Long Frontier campaigns checkpoint through the same parallel I/O stack
as their science output. This example runs half a simulation,
checkpoints, "crashes", restores into a *differently decomposed* run
(checkpoint blocks are globally addressed), finishes, and verifies the
result is bitwise identical to an uninterrupted run.

Usage::

    python examples/restart_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import GrayScottSettings, Simulation
from repro.core.restart import restore_checkpoint, write_checkpoint
from repro.mpi.executor import run_spmd


def main() -> int:
    outdir = Path(tempfile.mkdtemp(prefix="restart-"))
    settings = GrayScottSettings(
        L=24, steps=60, noise=0.02, seed=7,
        checkpoint=str(outdir / "ckpt.bp"),
    )

    # reference: one uninterrupted serial run
    print(f"reference run: {settings.steps} steps, serial")
    reference = Simulation(settings)
    reference.run(settings.steps)

    # phase 1: a 4-rank parallel job runs half way and checkpoints
    half = settings.steps // 2
    print(f"phase 1: 4-rank job runs {half} steps, checkpoints, 'crashes'")

    def phase1(comm):
        sim = Simulation(settings, comm)
        sim.run(half)
        write_checkpoint(sim)
        return True

    run_spmd(phase1, 4, timeout=300)

    # phase 2: a *2-rank* job restores the same checkpoint and finishes
    print("phase 2: 2-rank job restores the checkpoint and finishes")

    def phase2(comm):
        sim = Simulation(settings, comm)
        step = restore_checkpoint(sim)
        assert step == half, f"restored at step {step}, expected {half}"
        sim.run(settings.steps - step)
        return sim.domain.global_slices(), sim.interior("u"), sim.interior("v")

    # each rank's block must equal the same region of the serial run
    blocks = run_spmd(phase2, 2, timeout=300)
    ok_u = all(
        np.array_equal(reference.interior("u")[where], u) for where, u, _ in blocks
    )
    ok_v = all(
        np.array_equal(reference.interior("v")[where], v) for where, _, v in blocks
    )
    print(f"U bitwise identical to uninterrupted run: {ok_u}")
    print(f"V bitwise identical to uninterrupted run: {ok_v}")
    return 0 if (ok_u and ok_v) else 1


if __name__ == "__main__":
    raise SystemExit(main())
