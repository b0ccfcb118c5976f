import json

import numpy as np
import pytest

from repro.adios import bp5
from repro.adios.api import Adios
from repro.adios.bp5 import INDEX_FILE, dataset_path, read_index
from repro.mpi.executor import run_spmd
from repro.util.errors import (
    CorruptFileError,
    EngineStateError,
    VariableError,
)


@pytest.fixture
def io(tmp_path):
    return Adios().declare_io("test")


def _write_steps(io, path, steps=3, shape=(6, 6, 6)):
    u = io.define_variable("U", np.float64, shape=shape, count=shape)
    data = np.arange(np.prod(shape), dtype=np.float64).reshape(shape, order="F")
    with io.open(path, "w") as engine:
        for s in range(steps):
            engine.begin_step()
            engine.put(u, data + s)
            engine.end_step()
    return data


class TestSerialWriter:
    def test_roundtrip(self, io, tmp_path):
        data = _write_steps(io, tmp_path / "x.bp")
        reader = io.open(tmp_path / "x.bp", "r")
        assert reader.nsteps == 3
        got = reader.read("U", step=2)
        assert np.array_equal(got, np.asfortranarray(data + 2))

    def test_put_outside_step_rejected(self, io, tmp_path):
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        engine = io.open(tmp_path / "x.bp", "w")
        with pytest.raises(EngineStateError):
            engine.put(u, np.zeros((4, 4, 4)))

    def test_nested_begin_step_rejected(self, io, tmp_path):
        engine = io.open(tmp_path / "x.bp", "w")
        engine.begin_step()
        with pytest.raises(EngineStateError):
            engine.begin_step()

    def test_end_step_without_begin_rejected(self, io, tmp_path):
        engine = io.open(tmp_path / "x.bp", "w")
        with pytest.raises(EngineStateError):
            engine.end_step()

    def test_close_inside_step_rejected(self, io, tmp_path):
        engine = io.open(tmp_path / "x.bp", "w")
        engine.begin_step()
        with pytest.raises(EngineStateError):
            engine.close()

    def test_write_after_close_rejected(self, io, tmp_path):
        engine = io.open(tmp_path / "x.bp", "w")
        engine.close()
        with pytest.raises(EngineStateError):
            engine.begin_step()

    def test_double_close_is_noop(self, io, tmp_path):
        engine = io.open(tmp_path / "x.bp", "w")
        engine.close()
        engine.close()  # idempotent, like adios2

    def test_put_after_close_rejected(self, io, tmp_path):
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        engine = io.open(tmp_path / "x.bp", "w")
        engine.close()
        with pytest.raises(EngineStateError):
            engine.put(u, np.zeros((4, 4, 4)))

    def test_end_step_after_close_rejected(self, io, tmp_path):
        engine = io.open(tmp_path / "x.bp", "w")
        engine.close()
        with pytest.raises(EngineStateError):
            engine.end_step()

    def test_bad_open_mode_rejected(self, io, tmp_path):
        with pytest.raises(EngineStateError, match="mode"):
            io.open(tmp_path / "x.bp", "rw")

    def test_more_aggregators_than_ranks_rejected(self, io, tmp_path):
        io.set_parameter("NumAggregators", 2)
        with pytest.raises(EngineStateError, match="aggregators"):
            io.open(tmp_path / "x.bp", "w")

    def test_put_undefined_variable_rejected(self, io, tmp_path):
        engine = io.open(tmp_path / "x.bp", "w")
        engine.begin_step()
        with pytest.raises(VariableError):
            engine.put("nope", np.zeros(3))

    def test_put_wrong_shape_rejected(self, io, tmp_path):
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        engine = io.open(tmp_path / "x.bp", "w")
        engine.begin_step()
        with pytest.raises(VariableError):
            engine.put(u, np.zeros((2, 2, 2)))

    def test_put_by_name(self, io, tmp_path):
        io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        with io.open(tmp_path / "x.bp", "w") as engine:
            engine.begin_step()
            engine.put("U", np.ones((4, 4, 4)))
            engine.end_step()
        assert io.open(tmp_path / "x.bp", "r").read("U", step=0).sum() == 64

    def test_dataset_readable_after_each_step(self, io, tmp_path):
        """BP5 durability: the index is valid between steps."""
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        engine = io.open(tmp_path / "x.bp", "w")
        engine.begin_step()
        engine.put(u, np.ones((4, 4, 4)))
        engine.end_step()
        # read while the writer is still open
        reader = io.open(tmp_path / "x.bp", "r")
        assert reader.nsteps == 1
        engine.close()

    def test_steps_written_counts_end_steps(self, io, tmp_path):
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        engine = io.open(tmp_path / "x.bp", "w")
        assert engine.steps_written == 0
        for s in range(2):
            engine.begin_step()
            engine.put(u, np.full((4, 4, 4), float(s)))
            assert engine.steps_written == s  # counted at end_step, not put
            engine.end_step()
        engine.close()
        assert engine.steps_written == 2

    def test_scalars_inline(self, io, tmp_path):
        step_var = io.define_variable("step", np.int32)
        with io.open(tmp_path / "x.bp", "w") as engine:
            for s in range(4):
                engine.begin_step()
                engine.put(step_var, np.int32(s * 10))
                engine.end_step()
        reader = io.open(tmp_path / "x.bp", "r")
        assert reader.scalar_series("step") == [0, 10, 20, 30]
        assert reader.read_scalar("step", step=2) == 20

    def test_attributes_written(self, tmp_path):
        adios = Adios()
        io = adios.declare_io("attrs")
        io.define_attribute("Du", 0.2)
        io.define_attribute("schemas", ["FIDES", "VTX"])
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        with io.open(tmp_path / "x.bp", "w") as engine:
            engine.begin_step()
            engine.put(u, np.zeros((4, 4, 4)))
            engine.end_step()
        reader = io.open(tmp_path / "x.bp", "r")
        assert reader.attributes["Du"].value == 0.2
        assert reader.attributes["schemas"].value == ["FIDES", "VTX"]


class TestAppendMode:
    def test_append_continues_steps(self, tmp_path):
        adios = Adios()
        io = adios.declare_io("a")
        _write_steps(io, tmp_path / "x.bp", steps=2, shape=(4, 4, 4))
        io2 = Adios().declare_io("a")
        u = io2.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        with io2.open(tmp_path / "x.bp", "a") as engine:
            engine.begin_step()
            engine.put(u, np.full((4, 4, 4), 9.0))
            engine.end_step()
        reader = io2.open(tmp_path / "x.bp", "r")
        assert reader.nsteps == 3
        assert reader.read("U", step=2)[0, 0, 0] == 9.0

    def test_bad_mode(self, tmp_path):
        io = Adios().declare_io("a")
        with pytest.raises(EngineStateError):
            io.open(tmp_path / "x.bp", "rw")


class TestIndexWrites:
    """md.idx.json is written once per step, and at close only if it lags."""

    @staticmethod
    def _write(path, steps, *, rewrite_at_close=False):
        io = Adios().declare_io("idx")
        io.define_attribute("Du", 0.2)
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        engine = io.open(path, "w")
        for s in range(steps):
            engine.begin_step()
            engine.put(u, np.full((4, 4, 4), float(s)))
            engine.end_step()
        if rewrite_at_close:
            engine.steps_written = 0  # close then rewrites the index, as it once always did
        engine.close()

    @staticmethod
    def _record_index_writes(monkeypatch) -> list[int]:
        """The step count of every index written from now on."""
        written = []
        write_index = bp5.write_index

        def recorded(path, index):
            written.append(index.nsteps)
            write_index(path, index)

        monkeypatch.setattr(bp5, "write_index", recorded)
        return written

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_one_index_write_per_step(self, tmp_path, monkeypatch, steps):
        written = self._record_index_writes(monkeypatch)
        self._write(tmp_path / "x.bp", steps)
        assert written == (list(range(1, steps + 1)) or [0])
        assert read_index(tmp_path / "x.bp").nsteps == steps

    def test_parallel_writer_writes_once_per_step(self, tmp_path, monkeypatch):
        written = self._record_index_writes(monkeypatch)

        def worker(comm):
            io = Adios().declare_io("par")
            u = io.define_variable("U", np.float64, shape=(4, 4, 8),
                                   start=(0, 0, 4 * comm.rank), count=(4, 4, 4))
            with io.open(str(tmp_path / "p.bp"), "w", comm=comm) as engine:
                for s in range(2):
                    engine.begin_step()
                    engine.put(u, np.full((4, 4, 4), float(s + comm.rank)))
                    engine.end_step()

        run_spmd(worker, 2, timeout=60)
        assert written == [1, 2]

    @pytest.mark.parametrize("steps", [0, 2])
    def test_bytes_match_a_close_that_rewrites(self, tmp_path, steps):
        self._write(tmp_path / "a.bp", steps)
        self._write(tmp_path / "b.bp", steps, rewrite_at_close=True)
        a, b = dataset_path(tmp_path / "a.bp"), dataset_path(tmp_path / "b.bp")
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert INDEX_FILE in names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestIndexText:
    """md.idx.json reuses each block's text, byte for byte a full encode."""

    @staticmethod
    def _check_every_write(monkeypatch) -> list[int]:
        """After each index write, compare the file with a full encode."""
        checked = []
        write_index = bp5.write_index

        def compared(path, index):
            write_index(path, index)
            text = (path / INDEX_FILE).read_text()
            assert text == json.dumps(index.to_json(), indent=1)
            checked.append(len(index.blocks))

        monkeypatch.setattr(bp5, "write_index", compared)
        return checked

    @staticmethod
    def _define(io, nranks=1, rank=0):
        io.define_attribute("Du", 0.2)
        io.define_attribute("schemas", ["FIDES", "VTX"])
        u = io.define_variable("U", np.float64, shape=(4, 4, 4 * nranks),
                               start=(0, 0, 4 * rank), count=(4, 4, 4))
        v = io.define_variable("V", np.float64, shape=(4, 4, 4 * nranks),
                               start=(0, 0, 4 * rank), count=(4, 4, 4))
        v.add_operation("zlib", {"level": 4})
        return u, v, io.define_variable("step", np.int32)

    @staticmethod
    def _put_steps(engine, variables, steps, offset=0.0):
        u, v, step = variables
        for s in range(steps):
            engine.begin_step()
            engine.put(u, np.full((4, 4, 4), s + offset))
            engine.put(v, np.full((4, 4, 4), -s - offset))
            engine.put(step, np.int32(s))
            engine.end_step()

    def test_serial_and_append(self, tmp_path, monkeypatch):
        checked = self._check_every_write(monkeypatch)
        io = Adios().declare_io("txt")
        variables = self._define(io)
        with io.open(tmp_path / "x.bp", "w") as engine:
            self._put_steps(engine, variables, 3)
        io2 = Adios().declare_io("txt")
        variables = self._define(io2)
        with io2.open(tmp_path / "x.bp", "a") as engine:
            self._put_steps(engine, variables, 2)
        assert checked == [3, 6, 9, 12, 15]
        assert read_index(tmp_path / "x.bp").blocks[4].codec == "zlib"

    def test_two_rank_writer(self, tmp_path, monkeypatch):
        checked = self._check_every_write(monkeypatch)

        def worker(comm):
            io = Adios().declare_io("txt")
            variables = self._define(io, comm.size, comm.rank)
            with io.open(str(tmp_path / "p.bp"), "w", comm=comm) as engine:
                self._put_steps(engine, variables, 3, offset=comm.rank)

        run_spmd(worker, 2, timeout=60)
        # rank 0 alone writes the scalar
        assert checked == [5, 10, 15]


class TestReaderSelections:
    @pytest.fixture
    def dataset(self, tmp_path):
        io = Adios().declare_io("sel")
        path = tmp_path / "sel.bp"
        shape = (8, 8, 8)
        u = io.define_variable("U", np.float64, shape=shape, count=shape)
        data = np.arange(512, dtype=np.float64).reshape(shape, order="F")
        with io.open(path, "w") as engine:
            engine.begin_step()
            engine.put(u, data)
            engine.end_step()
        return path, data, io

    def test_box_selection(self, dataset):
        path, data, io = dataset
        reader = io.open(path, "r")
        sel = reader.read("U", step=0, start=(2, 3, 4), count=(3, 2, 2))
        assert np.array_equal(sel, np.asfortranarray(data[2:5, 3:5, 4:6]))

    def test_selection_out_of_bounds(self, dataset):
        path, _, io = dataset
        reader = io.open(path, "r")
        with pytest.raises(VariableError):
            reader.read("U", step=0, start=(6, 0, 0), count=(4, 8, 8))

    def test_unknown_variable(self, dataset):
        path, _, io = dataset
        reader = io.open(path, "r")
        with pytest.raises(VariableError):
            reader.read("V")

    def test_unknown_step(self, dataset):
        path, _, io = dataset
        reader = io.open(path, "r")
        with pytest.raises(VariableError):
            reader.read("U", step=5)

    def test_single_step_implicit(self, dataset):
        path, data, io = dataset
        reader = io.open(path, "r")
        assert np.array_equal(reader.read("U"), np.asfortranarray(data))

    def test_minmax_from_metadata(self, dataset):
        path, data, io = dataset
        reader = io.open(path, "r")
        assert reader.minmax("U") == (0.0, 511.0)

    def test_blocks_listing(self, dataset):
        path, _, io = dataset
        reader = io.open(path, "r")
        blocks = reader.blocks("U", 0)
        assert len(blocks) == 1
        assert blocks[0].count == (8, 8, 8)


class TestIndexMinmax:
    def test_spans_every_step(self, tmp_path):
        io = Adios().declare_io("mm")
        path = tmp_path / "mm.bp"
        u = io.define_variable("U", np.float64, shape=(4,), count=(4,))
        with io.open(path, "w") as engine:
            for lo in (5.0, -3.0, 1.0):
                engine.begin_step()
                engine.put(u, lo + np.arange(4.0))
                engine.end_step()
        assert read_index(path).var_minmax("U") == (-3.0, 8.0)

    def test_variable_without_blocks_is_corrupt(self):
        with pytest.raises(CorruptFileError, match="has no blocks"):
            bp5.Bp5Index().var_minmax("U")


class TestParallelWriter:
    @staticmethod
    def _parallel_write(path, nranks, shape_per_rank=(4, 4, 4), aggregators=None):
        n = shape_per_rank[2]
        global_shape = (shape_per_rank[0], shape_per_rank[1], n * nranks)

        def worker(comm):
            adios = Adios()
            io = adios.declare_io("par")
            if aggregators:
                io.set_parameter("NumAggregators", aggregators)
            start = (0, 0, n * comm.rank)
            u = io.define_variable(
                "U", np.float64, shape=global_shape, start=start, count=shape_per_rank
            )
            block = np.full(shape_per_rank, float(comm.rank), order="F")
            with io.open(str(path), "w", comm=comm) as engine:
                engine.begin_step()
                engine.put(u, block)
                engine.end_step()
            return True

        run_spmd(worker, nranks, timeout=60)
        return global_shape

    def test_blocks_assemble_to_global(self, tmp_path):
        path = tmp_path / "par.bp"
        global_shape = self._parallel_write(path, 4)
        reader = Adios().declare_io("r").open(path, "r")
        full = reader.read("U", step=0)
        assert full.shape == global_shape
        for rank in range(4):
            assert (full[:, :, 4 * rank: 4 * (rank + 1)] == rank).all()

    def test_default_aggregation_one_subfile_per_8_ranks(self, tmp_path):
        path = tmp_path / "agg.bp"
        self._parallel_write(path, 8)
        index = read_index(path)
        assert index.nsubfiles == 1

    def test_explicit_aggregators(self, tmp_path):
        path = tmp_path / "agg4.bp"
        self._parallel_write(path, 4, aggregators=4)
        index = read_index(path)
        assert index.nsubfiles == 4
        # every subfile exists and holds one block
        for k in range(4):
            assert (dataset_path(path) / f"data.{k}").stat().st_size == 4 * 4 * 4 * 8

    def test_block_metadata_per_rank(self, tmp_path):
        path = tmp_path / "meta.bp"
        self._parallel_write(path, 4)
        index = read_index(path)
        blocks = index.blocks_for("U", 0)
        assert sorted(b.writer_rank for b in blocks) == [0, 1, 2, 3]
        # per-block min/max enables query pushdown
        assert all(b.vmin == b.vmax == b.writer_rank for b in blocks)


class TestCorruption:
    def test_crc_detects_bit_flip(self, tmp_path):
        io = Adios().declare_io("c")
        path = tmp_path / "c.bp"
        _write_steps(io, path, steps=1, shape=(4, 4, 4))
        subfile = dataset_path(path) / "data.0"
        raw = bytearray(subfile.read_bytes())
        raw[10] ^= 0xFF
        subfile.write_bytes(bytes(raw))
        reader = io.open(path, "r")
        with pytest.raises(CorruptFileError, match="CRC"):
            reader.read("U", step=0)

    def test_verify_false_skips_crc(self, tmp_path):
        io = Adios().declare_io("c")
        path = tmp_path / "c.bp"
        _write_steps(io, path, steps=1, shape=(4, 4, 4))
        subfile = dataset_path(path) / "data.0"
        raw = bytearray(subfile.read_bytes())
        raw[10] ^= 0xFF
        subfile.write_bytes(bytes(raw))
        from repro.adios.engines import BP5Reader

        reader = BP5Reader(None, path, verify=False)
        reader.read("U", step=0)  # no raise

    def test_truncated_subfile(self, tmp_path):
        io = Adios().declare_io("c")
        path = tmp_path / "c.bp"
        _write_steps(io, path, steps=1, shape=(4, 4, 4))
        subfile = dataset_path(path) / "data.0"
        subfile.write_bytes(subfile.read_bytes()[:100])
        reader = io.open(path, "r")
        with pytest.raises(CorruptFileError, match="truncated"):
            reader.read("U", step=0)

    def test_missing_subfile(self, tmp_path):
        io = Adios().declare_io("c")
        path = tmp_path / "c.bp"
        _write_steps(io, path, steps=1, shape=(4, 4, 4))
        (dataset_path(path) / "data.0").unlink()
        reader = io.open(path, "r")
        with pytest.raises(CorruptFileError, match="missing data subfile"):
            reader.read("U", step=0)

    def test_garbage_index(self, tmp_path):
        io = Adios().declare_io("c")
        path = tmp_path / "c.bp"
        _write_steps(io, path, steps=1, shape=(4, 4, 4))
        (dataset_path(path) / INDEX_FILE).write_text("{not json")
        with pytest.raises(CorruptFileError, match="unparseable"):
            io.open(path, "r")

    def test_wrong_format_marker(self, tmp_path):
        io = Adios().declare_io("c")
        path = tmp_path / "c.bp"
        _write_steps(io, path, steps=1, shape=(4, 4, 4))
        index_file = dataset_path(path) / INDEX_FILE
        raw = json.loads(index_file.read_text())
        raw["format"] = "hdf5"
        index_file.write_text(json.dumps(raw))
        with pytest.raises(CorruptFileError, match="not a repro-bp5"):
            io.open(path, "r")

    def test_missing_index(self, tmp_path):
        with pytest.raises(CorruptFileError, match="missing metadata index"):
            Adios().declare_io("c").open(tmp_path / "nothere.bp", "r")


class TestAppendNewVariable:
    def test_variable_appearing_mid_stream(self, tmp_path):
        """A variable first written at a later step is indexed correctly."""
        io = Adios().declare_io("mid")
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        w = io.define_variable("W", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        path = tmp_path / "mid.bp"
        with io.open(path, "w") as engine:
            engine.begin_step()
            engine.put(u, np.zeros((4, 4, 4)))
            engine.end_step()
            engine.begin_step()
            engine.put(u, np.ones((4, 4, 4)))
            engine.put(w, np.full((4, 4, 4), 5.0))
            engine.end_step()
        reader = io.open(path, "r")
        assert reader.steps("U") == [0, 1]
        assert reader.steps("W") == [1]
        assert reader.read("W", step=1)[0, 0, 0] == 5.0
        with pytest.raises(VariableError):
            reader.read("W", step=0)

    def test_empty_step_allowed(self, tmp_path):
        """A step with no puts still advances the step counter."""
        io = Adios().declare_io("empty")
        u = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        path = tmp_path / "e.bp"
        with io.open(path, "w") as engine:
            engine.begin_step()
            engine.end_step()
            engine.begin_step()
            engine.put(u, np.ones((4, 4, 4)))
            engine.end_step()
        reader = io.open(path, "r")
        assert reader.nsteps == 2
        assert reader.steps("U") == [1]
