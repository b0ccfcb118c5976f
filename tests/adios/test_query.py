import numpy as np
import pytest

from repro.adios.api import Adios
from repro.adios.engines import BP5Reader
from repro.adios.query import QueryResult, RangeQuery, query_blocks, read_matching
from repro.adios.variable import BlockInfo
from repro.mpi.executor import run_spmd
from repro.util.errors import VariableError


@pytest.fixture
def blocky_dataset(tmp_path):
    """8 blocks along z with disjoint value ranges: block r holds r+[0,1)."""
    path = tmp_path / "q.bp"
    n = 4
    shape = (n, n, n * 8)

    def worker(comm):
        adios = Adios()
        io = adios.declare_io("q")
        u = io.define_variable(
            "U", np.float64, shape=shape,
            start=(0, 0, n * comm.rank), count=(n, n, n),
        )
        rng = np.random.default_rng(comm.rank)
        block = np.asfortranarray(comm.rank + rng.random((n, n, n)))
        with io.open(str(path), "w", comm=comm) as engine:
            engine.begin_step()
            engine.put(u, block)
            engine.end_step()
        return True

    run_spmd(worker, 8, timeout=60)
    return path


class TestRangeQuery:
    def test_needs_a_bound(self):
        with pytest.raises(VariableError):
            RangeQuery()

    def test_empty_range_rejected(self):
        with pytest.raises(VariableError):
            RangeQuery(lo=2.0, hi=1.0)

    def test_mask(self):
        q = RangeQuery(lo=1.0, hi=2.0)
        data = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        assert list(q.mask(data)) == [False, True, True, True, False]


    @pytest.mark.parametrize(
        "lo,hi,may_match",
        [
            (2.0, None, True),  # touches the block's max
            (2.000001, None, False),
            (None, 1.0, True),  # touches the block's min
            (None, 0.999999, False),
            (1.2, 1.8, True),  # inside
            (0.0, 3.0, True),  # covers
        ],
    )
    def test_block_may_match_bounds_are_inclusive(self, lo, hi, may_match):
        block = BlockInfo(
            var="U", step=0, writer_rank=0, subfile=0, offset=0, nbytes=8,
            start=(0,), count=(1,), vmin=1.0, vmax=2.0, crc32=0,
        )
        assert RangeQuery(lo=lo, hi=hi).block_may_match(block) is may_match

    def test_no_blocks_is_nothing_pruned(self):
        empty = QueryResult(
            coords=np.zeros((0, 3), dtype=np.int64), values=np.zeros(0),
            blocks_total=0, blocks_read=0,
        )
        assert empty.pruned_fraction == 0.0


class TestQueryPushdown:
    def test_pruning_uses_metadata_only(self, blocky_dataset):
        reader = BP5Reader(None, blocky_dataset)
        candidates, total = query_blocks(
            reader, "U", 0, RangeQuery(lo=5.0, hi=5.9)
        )
        assert total == 8
        assert len(candidates) == 1  # only block 5 can hold [5, 5.9]
        assert candidates[0].writer_rank == 5

    def test_read_matching_values_correct(self, blocky_dataset):
        reader = BP5Reader(None, blocky_dataset)
        result = read_matching(reader, "U", 0, RangeQuery(lo=6.0))
        # blocks 6 and 7 qualify; all their 128 cells are >= 6
        assert result.blocks_read == 2
        assert result.values.min() >= 6.0
        assert len(result.values) == 2 * 4 * 4 * 4
        assert result.pruned_fraction == pytest.approx(0.75)

    def test_coords_are_global(self, blocky_dataset):
        reader = BP5Reader(None, blocky_dataset)
        result = read_matching(reader, "U", 0, RangeQuery(lo=7.0))
        assert (result.coords[:, 2] >= 28).all()  # block 7 starts at z=28
        # values at the reported coordinates really match
        full = reader.read("U", step=0)
        for (i, j, k), value in zip(result.coords[:5], result.values[:5]):
            assert full[i, j, k] == value

    def test_no_matches(self, blocky_dataset):
        reader = BP5Reader(None, blocky_dataset)
        result = read_matching(reader, "U", 0, RangeQuery(lo=100.0))
        assert result.blocks_read == 0
        assert result.values.size == 0
        assert result.coords.shape == (0, 3)

    def test_unbounded_low(self, blocky_dataset):
        reader = BP5Reader(None, blocky_dataset)
        result = read_matching(reader, "U", 0, RangeQuery(hi=0.999999))
        assert result.blocks_read == 1  # only block 0
        assert result.values.max() < 1.0

    def test_unknown_variable(self, blocky_dataset):
        reader = BP5Reader(None, blocky_dataset)
        with pytest.raises(Exception):
            query_blocks(reader, "W", 0, RangeQuery(lo=0))

    def test_grayscott_active_region_query(self, tmp_path):
        """Workflow-level: find the pattern's active cells cheaply."""
        from repro import GrayScottSettings, Workflow

        settings = GrayScottSettings(
            L=16, steps=100, plotgap=100, noise=0.0,
            output=str(tmp_path / "gs.bp"),
        )
        Workflow(settings).run(analyze=False)
        reader = BP5Reader(None, settings.output)
        last = reader.steps("V")[-1]
        result = read_matching(reader, "V", last, RangeQuery(lo=0.1))
        full = reader.read("V", step=last)
        assert len(result.values) == int((full >= 0.1).sum())
