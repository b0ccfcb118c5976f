import pytest

from repro.cluster.frontier import FRONTIER, GcdSpec, extrapolated_machine
from repro.util.units import GB, GiB, TB


class TestTable1Constants:
    """Pin the Table 1 values every performance model consumes."""

    def test_node_count(self):
        assert FRONTIER.nodes == 9408

    def test_gcd_memory_and_bandwidth(self):
        gcd = FRONTIER.node.gcd
        assert gcd.hbm_bytes == 64 * GiB
        assert gcd.hbm_peak_bytes_per_s == 1600 * GB

    def test_interconnect(self):
        assert FRONTIER.node.gpu_cpu_bytes_per_s == 36 * GB
        assert FRONTIER.node.gpu_gpu_bytes_per_s == 50 * GB

    def test_filesystem(self):
        fs = FRONTIER.filesystem
        assert fs.oss_nodes == 450
        assert fs.metadata_nodes == 40
        assert fs.peak_write_bytes_per_s == 5.5 * TB
        assert fs.peak_read_bytes_per_s == 4.5 * TB

    def test_software_stack(self):
        sw = FRONTIER.software
        assert sw.julia == "1.9.2"
        assert sw.amdgpu_jl == "0.4.15"
        assert sw.adios2 == "2.8.3"

    def test_total_gcds(self):
        assert FRONTIER.total_gcds == 9408 * 8


class TestMachineSpec:
    def test_nodes_for_ranks(self):
        assert FRONTIER.nodes_for_ranks(1) == 1
        assert FRONTIER.nodes_for_ranks(8) == 1
        assert FRONTIER.nodes_for_ranks(9) == 2
        assert FRONTIER.nodes_for_ranks(4096) == 512

    def test_nodes_for_ranks_custom_density(self):
        assert FRONTIER.nodes_for_ranks(4, ranks_per_node=2) == 2

    def test_nodes_for_ranks_invalid(self):
        with pytest.raises(ValueError):
            FRONTIER.nodes_for_ranks(0)

    def test_describe_contains_key_rows(self):
        text = FRONTIER.describe()
        assert "9,408" in text
        assert "1600.0 GB/s" in text
        assert "Lustre Orion" in text
        assert "1.9.2" in text

    def test_paper_system_fraction(self):
        # the paper: 512 nodes is 5.44% of Frontier
        assert 512 / FRONTIER.nodes == pytest.approx(0.0544, abs=1e-3)

    def test_gcd_defaults(self):
        spec = GcdSpec()
        assert spec.tcc_bytes == 8 * (1 << 20)
        assert spec.cache_line_bytes == 64
        assert spec.max_workgroup_size == 1024


class TestExtrapolatedMachine:
    @pytest.mark.parametrize("nodes", [1, 512, 9408])
    def test_within_the_machine_is_the_machine(self, nodes):
        assert extrapolated_machine(nodes=nodes) is FRONTIER

    def test_scales_only_the_node_count(self):
        big = extrapolated_machine(nodes=131_072)
        assert big.nodes == 131_072
        assert big.name == "Frontierx131072"
        assert big.total_gcds == 131_072 * 8
        assert big.node == FRONTIER.node
        assert big.filesystem == FRONTIER.filesystem
        assert big.software == FRONTIER.software
        assert FRONTIER.nodes == 9408
