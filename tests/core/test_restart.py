import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.restart import restore_checkpoint, write_checkpoint
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.mpi.executor import run_spmd
from repro.util.errors import ConfigError
from tests.oracles.gather import gather_global


def _settings(tmp_path, **kwargs):
    defaults = dict(
        L=12, steps=10, noise=0.05, seed=5,
        checkpoint=str(tmp_path / "ckpt.bp"),
    )
    defaults.update(kwargs)
    return GrayScottSettings(**defaults)


class TestSerialRestart:
    def test_restart_continues_bitwise(self, tmp_path):
        settings = _settings(tmp_path)
        # uninterrupted run
        full = Simulation(settings)
        full.run(10)

        # interrupted at step 5, checkpointed, restored, continued
        first = Simulation(settings)
        first.run(5)
        path = write_checkpoint(first)

        resumed = Simulation(settings)
        step = restore_checkpoint(resumed, path)
        assert step == 5
        resumed.run(5)

        assert np.array_equal(full.u, resumed.u)
        assert np.array_equal(full.v, resumed.v)

    def test_restore_wrong_shape_rejected(self, tmp_path):
        settings = _settings(tmp_path)
        sim = Simulation(settings)
        path = write_checkpoint(sim)
        other = Simulation(_settings(tmp_path, L=16))
        with pytest.raises(ConfigError, match="shape"):
            restore_checkpoint(other, path)

    def _write_with_settings_json(self, tmp_path, monkeypatch, **extra):
        """A checkpoint whose ``settings_json`` carries ``extra`` keys."""
        settings = _settings(tmp_path)
        sim = Simulation(settings)
        sim.run(3)
        text = json.dumps({**asdict(settings), **extra}, indent=2)
        with monkeypatch.context() as patch:
            patch.setattr(GrayScottSettings, "to_json", lambda self: text)
            path = write_checkpoint(sim)
        return settings, sim, path

    def test_retired_exchange_key_restores(self, tmp_path, monkeypatch):
        """Checkpoints from before the one exchange schedule carry
        ``"exchange": "sequential"``; they restore and continue bitwise."""
        settings, written, path = self._write_with_settings_json(
            tmp_path, monkeypatch, exchange="sequential"
        )
        resumed = Simulation(settings)
        assert restore_checkpoint(resumed, path) == 3
        written.run(2)
        resumed.run(2)
        assert np.array_equal(written.u, resumed.u)
        assert np.array_equal(written.v, resumed.v)

    def test_other_unknown_keys_still_rejected(self, tmp_path, monkeypatch):
        settings, _, path = self._write_with_settings_json(
            tmp_path, monkeypatch, exchange="sequential", typo_key=1
        )
        with pytest.raises(ConfigError, match=r"unknown settings keys: \['typo_key'\]"):
            restore_checkpoint(Simulation(settings), path)

    def test_no_checkpoint_configured(self, tmp_path):
        settings = _settings(tmp_path, checkpoint="")
        sim = Simulation(settings)
        with pytest.raises(ConfigError, match="no checkpoint"):
            restore_checkpoint(sim)

    def test_default_path_from_settings(self, tmp_path):
        settings = _settings(tmp_path)
        sim = Simulation(settings)
        sim.run(2)
        path = write_checkpoint(sim)
        assert path == settings.checkpoint


class TestCrossDecompositionRestart:
    def test_parallel_checkpoint_serial_restore(self, tmp_path):
        """Blocks are globally addressed: any decomposition can restore."""
        settings = _settings(tmp_path)

        def worker(comm):
            sim = Simulation(settings, comm)
            sim.run(4)
            write_checkpoint(sim)
            return True

        run_spmd(worker, 8, timeout=120)

        resumed = Simulation(settings)
        assert restore_checkpoint(resumed) == 4
        resumed.run(6)

        reference = Simulation(settings)
        reference.run(10)
        assert np.array_equal(reference.u, resumed.u)

    def test_serial_checkpoint_parallel_restore(self, tmp_path):
        settings = _settings(tmp_path)
        serial = Simulation(settings)
        serial.run(4)
        write_checkpoint(serial)

        reference = Simulation(settings)
        reference.run(10)
        expected = gather_global(reference, "v")

        def worker(comm):
            sim = Simulation(settings, comm)
            restore_checkpoint(sim)
            sim.run(6)
            return gather_global(sim, "v")

        got = run_spmd(worker, 2, timeout=120)[0]
        assert np.array_equal(expected, got)
