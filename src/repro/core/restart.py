"""Checkpoint / restart through the BP5 engine.

A checkpoint is a one-step dataset holding the exact ghostless interior
of U and V plus the step counter and settings provenance; restoring
re-assembles each rank's block (any compatible decomposition works,
because blocks are addressed in global coordinates) and refreshes the
ghost layers with one exchange. A restored run continues bitwise
identically to an uninterrupted one — asserted by
``tests/core/test_restart.py``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.adios import bp5
from repro.adios.api import Adios
from repro.adios.engines import BP5Reader
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.util.errors import ConfigError


def _staging(final: Path) -> tuple[Path, Path]:
    """The write in progress beside ``final``, and the checkpoint it replaces."""
    return tuple(final.with_name(f"{final.stem}.{tag}.bp") for tag in ("next", "prev"))


def write_checkpoint(sim: Simulation, path: str | None = None) -> str:
    """Write a checkpoint dataset; returns its path.

    The dataset is written beside the previous checkpoint and swapped in
    once complete, so a write stopped at any point leaves a restorable
    checkpoint.
    """
    target = path or sim.settings.checkpoint or "ckpt.bp"
    final = bp5.dataset_path(target)
    staged, previous = _staging(final)
    lead = sim.cart is None or sim.cart.rank == 0
    if lead:
        shutil.rmtree(staged, ignore_errors=True)  # what a stopped write left
    adios = Adios()
    io = adios.declare_io("Checkpoint")
    shape = sim.settings.shape
    var_u = io.define_variable(
        "U", sim.dtype, shape=shape, start=sim.domain.start, count=sim.domain.count
    )
    var_v = io.define_variable(
        "V", sim.dtype, shape=shape, start=sim.domain.start, count=sim.domain.count
    )
    var_step = io.define_variable("step", np.int64)
    io.define_attribute("settings_json", sim.settings.to_json())
    with io.open(staged, "w", comm=sim.cart) as engine:
        engine.begin_step()
        engine.put(var_u, np.asfortranarray(sim.interior("u")))
        engine.put(var_v, np.asfortranarray(sim.interior("v")))
        engine.put(var_step, np.int64(sim.step_count))
        engine.end_step()
    if lead:
        if final.exists():
            shutil.rmtree(previous, ignore_errors=True)
            final.rename(previous)
        staged.rename(final)
        shutil.rmtree(previous, ignore_errors=True)
    if sim.cart is not None:
        sim.cart.barrier()
    return target


def restore_checkpoint(sim: Simulation, path: str | None = None) -> int:
    """Load a checkpoint into ``sim``; returns the restored step count.

    Collective when the simulation is parallel: every rank reads its own
    block (the reader is serial per rank, which is exactly how ADIOS2
    reading with a box selection behaves for restart).
    """
    source = path or sim.settings.checkpoint
    if not source:
        raise ConfigError("no checkpoint path configured")
    final = bp5.dataset_path(source)
    previous = _staging(final)[1]
    if not final.exists() and previous.exists():  # stopped between the swap's renames
        final = previous
    reader = BP5Reader(None, final)
    attrs = reader.attributes
    if "settings_json" in attrs:
        saved = _saved_settings(attrs["settings_json"].value)
        if saved.shape != sim.settings.shape:
            raise ConfigError(
                f"checkpoint is for global shape {saved.shape}, "
                f"simulation has {sim.settings.shape}"
            )
    start, count = sim.domain.start, sim.domain.count
    sim.interior("u")[...] = reader.read("U", start=start, count=count)
    sim.interior("v")[...] = reader.read("V", start=start, count=count)
    sim.step_count = int(reader.read_scalar("step"))
    reader.close()
    sim.exchange()
    return sim.step_count


def _saved_settings(text: str) -> GrayScottSettings:
    """A checkpoint's settings, strictly validated.

    Checkpoints written before the ghost exchange had one schedule carry
    an ``"exchange"`` key the schema has since dropped; only that key is
    forgiven.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        return GrayScottSettings.from_json(text)  # reports the bad JSON
    if isinstance(raw, dict):
        raw.pop("exchange", None)
    return GrayScottSettings.from_json(json.dumps(raw))
