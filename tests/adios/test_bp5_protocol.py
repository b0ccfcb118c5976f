"""The BP5 writer's hand-off of blocks from ranks to their aggregator.

``put`` snapshots its data (sync semantics), so a caller may hand it a
live strided view and overwrite the field before ``end_step``. A
non-aggregator sends its block metadata as one small object message;
each payload follows as a ``uint8`` array message, so no block is
pickled. The bytes on disk are pinned against the datasets the earlier
``bytes()``-and-pickle hand-off wrote.
"""

import hashlib

import numpy as np
import pytest

from repro.adios.api import Adios
from repro.adios.bp5 import dataset_path, read_index
from repro.mpi import comm as comm_mod
from repro.mpi.executor import run_spmd

#: the largest object message a step may send (the metadata of a few blocks)
OBJECT_LIMIT = 64 * 1024

#: (16, 16, 40) float64: one block is 80 KiB, beyond OBJECT_LIMIT
COUNT = (16, 16, 40)


def _snapshot_write(path, comm=None):
    """Put the interior view of a ghosted field, then clobber the field."""
    rank, size = (comm.rank, comm.size) if comm is not None else (0, 1)
    io = Adios().declare_io("snap")
    count = (4, 5, 6)
    shape = (4, 5, 6 * size)
    u = io.define_variable("U", np.float64, shape=shape,
                           start=(0, 0, 6 * rank), count=count)
    f = np.asfortranarray(
        np.arange(6 * 7 * 8, dtype=np.float64).reshape(6, 7, 8) + 1000 * rank
    )
    view = f[1:-1, 1:-1, 1:-1]
    assert not view.flags.f_contiguous
    expected = view.copy(order="F")
    with io.open(str(path), "w", comm=comm) as engine:
        engine.begin_step()
        engine.put(u, view)
        f[...] = -1.0
        engine.end_step()
    return expected


class TestPutSnapshot:
    def test_serial_block_holds_put_time_values(self, tmp_path):
        expected = _snapshot_write(tmp_path / "s.bp")
        got = Adios().declare_io("r").open(tmp_path / "s.bp", "r").read("U", step=0)
        assert np.array_equal(got, expected)

    def test_remote_aggregator_block_holds_put_time_values(self, tmp_path):
        path = tmp_path / "p.bp"
        expected = run_spmd(lambda comm: _snapshot_write(path, comm), 2, timeout=60)
        got = Adios().declare_io("r").open(path, "r").read("U", step=0)
        assert np.array_equal(got[:, :, :6], expected[0])
        assert np.array_equal(got[:, :, 6:], expected[1])
        # rank 1's block reached rank 0's subfile through the comm
        index = read_index(path)
        assert index.nsubfiles == 1
        assert {b.writer_rank for b in index.blocks} == {0, 1}


#: sha256 of each file the protocol writes, as the pickled hand-off wrote them
PINNED = {
    (2, None): {
        "data.0": "0de9e70c81238165238947109cc16f35930b517970ee2f7883b39a7d1a520dbd",
        "md.idx.json": "cb7fa771284eae25f545accc651a098041ee1fe5548e472779c9a960a43f9eb8",
    },
    (8, 2): {
        "data.0": "0066b43b1fc14339bcb645e93626fc8ef7dc40b25a3cdd3bf7908caa9c4dad37",
        "data.1": "feda1d0833da7f955031686c99bb9fa7fd191fa65e3ed94988f2fd3e08c8ff16",
        "md.idx.json": "74a48d599e11332642520208916ef03bb360097d277fe3ff13f272c7f57a26b6",
    },
}


def _protocol_write(path, nranks, aggregators, monkeypatch):
    """Write 2 steps of a plain, a zlib and a scalar variable; return the
    (kind, nbytes, dtype) of every message the comm froze."""
    messages = []
    real = comm_mod._freeze_payload

    def recording(data):
        payload, nbytes = real(data)
        kind = "array" if isinstance(payload, np.ndarray) else "object"
        messages.append((kind, nbytes, getattr(payload, "dtype", None)))
        return payload, nbytes

    monkeypatch.setattr(comm_mod, "_freeze_payload", recording)

    def worker(comm):
        io = Adios().declare_io("proto")
        if aggregators:
            io.set_parameter("NumAggregators", aggregators)
        n = COUNT[2]
        shape = (COUNT[0], COUNT[1], n * comm.size)
        start = (0, 0, n * comm.rank)
        plain = io.define_variable("U", np.float64, shape=shape, start=start, count=COUNT)
        packed = io.define_variable("Z", np.float32, shape=shape, start=start, count=COUNT)
        packed.add_operation("zlib", {"level": 4})
        step_var = io.define_variable("step", np.int32)
        cells = np.arange(np.prod(COUNT), dtype=np.float64).reshape(COUNT, order="F")
        with io.open(str(path), "w", comm=comm) as engine:
            for step in range(2):
                engine.begin_step()
                field = np.sin(cells * (comm.rank + 1) + step)
                engine.put(plain, field)
                engine.put(packed, (field > 0).astype(np.float32) * step)
                engine.put(step_var, np.int32(step))
                engine.end_step()

    run_spmd(worker, nranks, timeout=60)
    return messages


@pytest.mark.parametrize(
    "nranks,aggregators,aggregator_ranks", [(2, None, {0}), (8, 2, {0, 4})]
)
def test_blocks_cross_as_arrays(tmp_path, monkeypatch, nranks, aggregators,
                                aggregator_ranks):
    path = tmp_path / "proto.bp"
    messages = _protocol_write(path, nranks, aggregators, monkeypatch)
    index = read_index(path)

    objects = [nbytes for kind, nbytes, _ in messages if kind == "object"]
    assert max(objects) <= OBJECT_LIMIT
    # every data block a non-aggregator wrote crossed as one uint8 array
    shipped = sorted(
        b.nbytes for b in index.blocks
        if b.writer_rank not in aggregator_ranks and b.value is None
    )
    arrays = sorted(
        nbytes for kind, nbytes, dtype in messages
        if kind == "array" and dtype == np.uint8
    )
    assert shipped and arrays == shipped
    assert max(shipped) > OBJECT_LIMIT  # a pickled block would break the limit

    root = dataset_path(path)
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.iterdir())
        if f.name.startswith("data.") or f.name == "md.idx.json"
    }
    assert digests == PINNED[(nranks, aggregators)]
