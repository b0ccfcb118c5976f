import numpy as np
import pytest

from repro.cluster.frontier import FRONTIER
from repro.cluster.placement import Placement


class TestPlacement:
    def test_block_placement(self):
        p = Placement(16)
        assert p.location(0).node == 0
        assert p.location(7).node == 0
        assert p.location(8).node == 1
        assert p.location(8).gcd == 0

    def test_same_node(self):
        p = Placement(16)
        assert p.same_node(0, 7)
        assert not p.same_node(7, 8)

    def test_gpu_index_two_gcds_per_gpu(self):
        p = Placement(8)
        assert p.location(0).gpu == 0
        assert p.location(1).gpu == 0
        assert p.location(2).gpu == 1
        assert p.location(7).gpu == 3

    def test_nnodes(self):
        assert Placement(1).nnodes == 1
        assert Placement(9).nnodes == 2
        assert Placement(4096).nnodes == 512

    def test_ranks_on_node(self):
        p = Placement(12)
        assert p.nodes_of(np.arange(12)).tolist() == [0] * 8 + [1] * 4

    def test_out_of_range_rank(self):
        with pytest.raises(ValueError):
            Placement(4).location(4)

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            Placement(0)

    def test_too_many_ranks_per_node(self):
        with pytest.raises(ValueError):
            Placement(8, ranks_per_node=9)

    def test_job_larger_than_machine(self):
        with pytest.raises(ValueError):
            Placement(FRONTIER.total_gcds + 8)

    def test_custom_density(self):
        p = Placement(4, ranks_per_node=1)
        assert p.nnodes == 4
        assert not p.same_node(0, 1)


class TestRoundRobinPlacement:
    def test_deals_across_nodes(self):
        p = Placement(16, strategy="roundrobin")
        assert p.location(0).node == 0
        assert p.location(1).node == 1
        assert p.location(2).node == 0
        assert not p.same_node(0, 1)
        assert p.same_node(0, 2)

    def test_ranks_on_node(self):
        p = Placement(8, ranks_per_node=4, strategy="roundrobin")
        assert p.nnodes == 2
        assert p.nodes_of(np.arange(8)).tolist() == [0, 1] * 4

    def test_gcd_within_limits(self):
        p = Placement(12, strategy="roundrobin")
        for rank in range(12):
            assert 0 <= p.location(rank).gcd < 8

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            Placement(8, strategy="scatter")

    def test_roundrobin_destroys_halo_locality(self):
        """The Figure-6 placement ablation: cyclic placement makes the
        z-neighbour exchanges inter-node, raising the exchange cost."""
        from repro.mpi.netmodel import HaloExchangeModel

        block = HaloExchangeModel(
            Placement(64, strategy="block"), (4, 4, 4), (128, 128, 128)
        )
        cyclic = HaloExchangeModel(
            Placement(64, strategy="roundrobin"), (4, 4, 4), (128, 128, 128)
        )
        t_block = sum(block.rank_step_seconds(r).total_seconds for r in range(64))
        t_cyclic = sum(cyclic.rank_step_seconds(r).total_seconds for r in range(64))
        assert t_cyclic > t_block
