"""A checkpoint overwrite that stops part-way leaves a restorable checkpoint.

``write_checkpoint`` writes the new dataset beside the old one and swaps
it in once it is complete. Stopping the writer anywhere between open and
``end_step`` — or between the two renames of the swap — must leave the
previous checkpoint for ``restore_checkpoint``, and a completed write
must produce the same BP5 bytes as writing the dataset in place.
"""

import numpy as np
import pytest

from repro.adios.api import Adios
from repro.adios.engines import BP5Writer
from repro.core.restart import _staging, restore_checkpoint, write_checkpoint
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation


class _Stop(BaseException):
    """The writer's process stopping (not an error a caller handles)."""


def _settings(tmp_path):
    return GrayScottSettings(L=10, steps=0, noise=0.05, seed=3,
                             checkpoint=str(tmp_path / "ckpt.bp"))


def _tree(path):
    return {f.relative_to(path).as_posix(): f.read_bytes()
            for f in sorted(path.rglob("*")) if f.is_file()}


def _restored(settings):
    sim = Simulation(settings)
    return restore_checkpoint(sim), sim


@pytest.mark.parametrize("stop_in", ["begin_step", "put", "end_step"])
def test_stopped_overwrite_restores_the_previous_step(stop_in, tmp_path, monkeypatch):
    settings = _settings(tmp_path)
    sim = Simulation(settings)
    sim.run(3)
    write_checkpoint(sim)
    saved_u = sim.interior("u").copy()
    sim.run(2)

    def stop(*args, **kwargs):
        raise _Stop

    with monkeypatch.context() as patch:
        patch.setattr(BP5Writer, stop_in, stop)
        with pytest.raises(_Stop):
            write_checkpoint(sim)
    step, restored = _restored(settings)
    assert step == 3
    assert np.array_equal(restored.interior("u"), saved_u)

    write_checkpoint(sim)  # the next write clears what the stopped one left
    assert _restored(settings)[0] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bp"]


def test_stop_between_the_swap_renames_restores_the_previous_step(tmp_path):
    settings = _settings(tmp_path)
    sim = Simulation(settings)
    sim.run(4)
    write_checkpoint(sim)
    final = tmp_path / "ckpt.bp"
    final.rename(_staging(final)[1])  # the swap's first rename, then a stop
    assert _restored(settings)[0] == 4
    sim.run(1)
    write_checkpoint(sim)
    assert _restored(settings)[0] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bp"]


def test_completed_overwrite_writes_the_same_bytes(tmp_path):
    settings = _settings(tmp_path / "swapped")
    sim = Simulation(settings)
    sim.run(2)
    write_checkpoint(sim)
    sim.run(2)
    write_checkpoint(sim)  # an overwrite

    # the same dataset written in place, as the writer lays it out
    io = Adios().declare_io("Checkpoint")
    var_u = io.define_variable("U", sim.dtype, shape=settings.shape,
                               start=sim.domain.start, count=sim.domain.count)
    var_v = io.define_variable("V", sim.dtype, shape=settings.shape,
                               start=sim.domain.start, count=sim.domain.count)
    var_step = io.define_variable("step", np.int64)
    io.define_attribute("settings_json", settings.to_json())
    with io.open(tmp_path / "direct" / "ckpt.bp", "w") as engine:
        engine.begin_step()
        engine.put(var_u, np.asfortranarray(sim.interior("u")))
        engine.put(var_v, np.asfortranarray(sim.interior("v")))
        engine.put(var_step, np.int64(sim.step_count))
        engine.end_step()
    swapped = _tree(tmp_path / "swapped" / "ckpt.bp")
    assert swapped and swapped == _tree(tmp_path / "direct" / "ckpt.bp")
