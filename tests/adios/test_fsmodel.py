import numpy as np
import pytest

from repro.adios.fsmodel import (
    IoWeakScalingModel,
    LustreModel,
    contention_efficiency,
)
from repro.bench import calibration as cal
from repro.util.rngs import seed_for
from repro.util.units import GB, TB


def _per_sample_write_seconds(model, seed, nnodes, bytes_per_node, sample):
    """One node's write time from its own SeedSequence and Philox."""
    gen = np.random.Generator(
        np.random.Philox(seed_for(seed, "lustre", "write", nnodes, sample))
    )
    jitter = float(np.exp(gen.normal(0.0, cal.LUSTRE_WRITE_SIGMA)))
    base = bytes_per_node / model.node_write_bandwidth(nnodes)
    return cal.LUSTRE_METADATA_SECONDS + base * jitter


class TestContentionEfficiency:
    def test_single_node_full_efficiency(self):
        assert contention_efficiency(1) == 1.0

    def test_monotone_decreasing(self):
        values = [contention_efficiency(n) for n in (1, 8, 64, 512)]
        assert values == sorted(values, reverse=True)

    def test_mild_degradation(self):
        assert contention_efficiency(512) > 0.9

    def test_invalid(self):
        with pytest.raises(ValueError):
            contention_efficiency(0)


class TestLustreModel:
    def test_aggregate_capped_at_peak(self):
        model = LustreModel()
        assert model.aggregate_write_bandwidth(9000) <= 5.5 * TB

    def test_aggregate_grows_with_nodes(self):
        model = LustreModel()
        assert model.aggregate_write_bandwidth(512) > model.aggregate_write_bandwidth(8)

    def test_write_seconds_deterministic(self):
        a = LustreModel(seed=1).write_seconds_per_node(8, 1 * GB, sample=3)
        b = LustreModel(seed=1).write_seconds_per_node(8, 1 * GB, sample=3)
        assert a == b

    def test_write_seconds_include_metadata_cost(self):
        model = LustreModel()
        assert model.write_seconds_per_node(1, 0) >= 0.3

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            LustreModel().write_seconds_per_node(1, -5)

    def test_job_waits_for_slowest(self):
        model = LustreModel(seed=3)
        job = model.job_write_seconds(16, 10 * GB)
        singles = [
            model.write_seconds_per_node(16, 10 * GB, sample=n) for n in range(16)
        ]
        assert job == max(singles)

    def test_scalar_sample_matches_per_sample_generator(self):
        model = LustreModel(seed=5)
        for sample in (0, 7, 2**63, "2:11"):
            got = model.write_seconds_per_node(64, 3 * GB, sample=sample)
            assert isinstance(got, float)
            assert got == _per_sample_write_seconds(model, 5, 64, 3 * GB, sample)

    def test_batched_samples_equal_scalar_list_at_virtual_256k(self):
        # the keys of a 262,144-rank virtual run: 32,768 node leaders,
        # sample f"{output step}:{node}", bytes of 8 ranks of 48^3 x 2 x 8
        nnodes, bytes_per_node, seed = 32768, 8 * 48**3 * 2 * 8, 42
        model = LustreModel(seed=seed)
        for out in (1, 4):
            samples = [f"{out}:{node}" for node in range(nnodes)]
            got = model.write_seconds_per_node(
                nnodes, bytes_per_node, sample=samples
            )
            expected = [
                _per_sample_write_seconds(model, seed, nnodes, bytes_per_node, s)
                for s in samples
            ]
            assert got.tobytes() == np.array(expected).tobytes()
        # a single sample returns the same float as its element of the batch
        scalar = model.write_seconds_per_node(nnodes, bytes_per_node, sample="4:9")
        assert scalar == got[9]

    def test_batched_int_samples_and_mixed_kinds(self):
        model = LustreModel(seed=2)
        got = model.write_seconds_per_node(16, GB, sample=range(16))
        assert got.tolist() == [
            model.write_seconds_per_node(16, GB, sample=n) for n in range(16)
        ]
        assert model.write_seconds_per_node(16, GB, sample=[]).shape == (0,)
        with pytest.raises(TypeError):
            model.write_seconds_per_node(16, GB, sample=[0, "1"])


class TestIoWeakScalingModel:
    @pytest.fixture(scope="class")
    def points(self):
        return IoWeakScalingModel(seed=2023).run([1, 8, 64, 512, 4096])

    def test_figure8_peak_bandwidth(self, points):
        best = max(p.write_bandwidth for p in points)
        # paper: 434 GB/s at 512 nodes
        assert best == pytest.approx(434 * GB, rel=0.1)

    def test_bandwidth_fraction_of_fs_peak(self, points):
        best = max(p.write_bandwidth for p in points)
        assert best / (5.5 * TB) == pytest.approx(0.08, abs=0.02)

    def test_write_times_fairly_flat_from_full_node(self, points):
        by = {p.nranks: p for p in points}
        assert by[4096].write_seconds / by[8].write_seconds < 2.0

    def test_data_per_node_constant(self, points):
        full_nodes = [p for p in points if p.nranks >= 8]
        per_node = {p.bytes_per_node for p in full_nodes}
        assert len(per_node) == 1
        # 8 GCDs x 2 fields x 1024^3 doubles ~ 137 GB
        assert per_node.pop() == 8 * 2 * 1024**3 * 8

    def test_node_counts(self, points):
        assert [p.nnodes for p in points] == [1, 1, 8, 64, 512]
