import math

import numpy as np
import pytest

from repro.bench import calibration as cal
from repro.cluster.placement import Placement
from repro.mpi.netmodel import (
    HaloExchangeModel,
    NetModel,
    WeakScalingModel,
    WeakScalingPoint,
    noise_sigma,
)
from tests.oracles import netmodel as oracle


class TestNetModel:
    def test_intra_vs_inter_node(self):
        net = NetModel(Placement(16))
        nbytes = 8 << 20
        intra = net.p2p_seconds(0, 1, nbytes)
        inter = net.p2p_seconds(0, 8, nbytes)
        assert inter > intra  # Slingshot is slower than Infinity Fabric

    def test_self_message_free(self):
        net = NetModel(Placement(4))
        assert net.p2p_seconds(2, 2, 1 << 20) == 0.0

    def test_latency_dominates_small_messages(self):
        net = NetModel(Placement(16))
        assert net.p2p_seconds(0, 8, 1) == pytest.approx(
            cal.NET_LATENCY_INTER_S, rel=0.01
        )


class TestHaloExchangeModel:
    def test_face_bytes(self):
        model = HaloExchangeModel(
            Placement(8), (2, 2, 2), (1024, 1024, 1024)
        )
        assert model.face_bytes(0) == 1024 * 1024 * 8

    def test_periodic_all_ranks_same_message_count(self):
        model = HaloExchangeModel(Placement(64), (4, 4, 4), (64, 64, 64))
        costs = [model.rank_step_seconds(r).total_seconds for r in range(64)]
        # all ranks exchange 6 faces; spread only from link placement
        assert max(costs) / min(costs) < 2.5

    def test_nonperiodic_corners_cheaper(self):
        periodic = HaloExchangeModel(
            Placement(64), (4, 4, 4), (64, 64, 64), periodic=True
        )
        open_bc = HaloExchangeModel(
            Placement(64), (4, 4, 4), (64, 64, 64), periodic=False
        )
        # rank 0 is a corner: half its neighbours vanish without wrap
        assert (
            open_bc.rank_step_seconds(0).total_seconds
            < periodic.rank_step_seconds(0).total_seconds
        )

    def test_breakdown_components_positive(self):
        model = HaloExchangeModel(Placement(8), (2, 2, 2), (128, 128, 128))
        cost = model.rank_step_seconds(0)
        assert cost.pack_seconds > 0
        assert cost.transfer_seconds > 0
        assert cost.d2h_h2d_seconds > 0
        assert cost.total_seconds == pytest.approx(
            cost.pack_seconds + cost.transfer_seconds + cost.d2h_h2d_seconds
        )

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("gpu_aware", [True, False])
    def test_slice_bitwise_matches_scalar_loop(self, periodic, gpu_aware):
        model = HaloExchangeModel(
            Placement(128), (8, 4, 4), (64, 64, 64),
            periodic=periodic, gpu_aware=gpu_aware,
        )
        vector = model.slice_step_seconds(0, 128)
        scalar = np.array(
            [oracle.rank_step_breakdown(model, r).total_seconds
             for r in range(128)]
        )
        assert (vector == scalar).all()  # bitwise, not approx

    @pytest.mark.parametrize("gpu_aware", [False, True], ids=["host", "aware"])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    @pytest.mark.parametrize("strategy", ["block", "roundrobin"])
    @pytest.mark.parametrize("ranks_per_node", [8, 3])
    @pytest.mark.parametrize(
        "cart_dims",
        [(1, 1, 1), (2, 1, 1), (1, 2, 3), (3, 1, 5), (4, 2, 2), (2, 5, 3)],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_matches_per_face_oracle(
        self, cart_dims, ranks_per_node, strategy, periodic, gpu_aware
    ):
        """Every rank's breakdown and total, bitwise, against the
        per-face loop: extents of 1 (self-neighbour faces), 2 (both
        faces reach the same rank) and more, on both placements."""
        nranks = math.prod(cart_dims)
        placement = Placement(
            nranks, ranks_per_node=ranks_per_node, strategy=strategy
        )
        model = HaloExchangeModel(
            placement, cart_dims, (24, 40, 56),
            periodic=periodic, gpu_aware=gpu_aware,
        )
        expected = [oracle.rank_step_breakdown(model, r) for r in range(nranks)]
        totals = model.slice_step_seconds(0, nranks)
        assert totals.tolist() == [e.total_seconds for e in expected]
        for rank, want in enumerate(expected):
            assert model.rank_step_seconds(rank) == want, rank

    def test_slice_subrange_and_empty(self):
        model = HaloExchangeModel(Placement(64), (4, 4, 4), (64, 64, 64))
        full = model.slice_step_seconds(0, 64)
        assert (model.slice_step_seconds(16, 48) == full[16:48]).all()
        assert model.slice_step_seconds(5, 5).size == 0


class TestNoiseSigma:
    def test_flat_until_onset(self):
        assert noise_sigma(1) == noise_sigma(512) == cal.NOISE_SIGMA_BASE

    def test_grows_past_onset(self):
        assert noise_sigma(4096) > noise_sigma(512)
        assert noise_sigma(32768) > noise_sigma(4096)


class TestWeakScalingModel:
    @pytest.fixture(scope="class")
    def points(self):
        return WeakScalingModel(steps=20, seed=2023).run([1, 8, 64, 512, 4096])

    def test_kernel_time_matches_table3(self, points):
        # 111 ms per application step at 1024^3 on the julia backend
        assert points[0].kernel_seconds_per_step == pytest.approx(0.111, rel=0.05)

    def test_paper_variability_bands(self, points):
        by_ranks = {p.nranks: p for p in points}
        assert by_ranks[512].variability < 0.05  # paper: 2-3%
        assert 0.08 < by_ranks[4096].variability < 0.20  # paper: 12-15%

    def test_variability_is_spread_over_mean(self):
        point = WeakScalingPoint(
            nranks=4, nnodes=1, cart_dims=(4, 1, 1), steps=1,
            rank_seconds=np.array([1.0, 1.5, 2.0, 1.5]),
            kernel_seconds_per_step=1.0, comm_seconds_mean=0.5,
        )
        assert (point.min_seconds, point.mean_seconds, point.max_seconds) == (
            1.0, 1.5, 2.0,
        )
        assert point.variability == pytest.approx(1.0 / 1.5)

    def test_variability_grows_with_scale(self, points):
        assert points[-1].variability > points[1].variability

    def test_weak_scaling_mean_nearly_flat(self, points):
        assert points[-1].mean_seconds / points[0].mean_seconds < 1.25

    def test_deterministic_given_seed(self):
        a = WeakScalingModel(seed=7).run_point(64)
        b = WeakScalingModel(seed=7).run_point(64)
        assert np.array_equal(a.rank_seconds, b.rank_seconds)

    def test_seed_changes_jitter(self):
        a = WeakScalingModel(seed=7).run_point(64)
        b = WeakScalingModel(seed=8).run_point(64)
        assert not np.array_equal(a.rank_seconds, b.rank_seconds)

    def test_cart_dims_follow_ladder(self, points):
        assert [p.cart_dims for p in points] == [
            (1, 1, 1), (2, 2, 2), (4, 4, 4), (8, 8, 8), (16, 16, 16)
        ]

    def test_nodes_accounting(self, points):
        assert [p.nnodes for p in points] == [1, 1, 8, 64, 512]

    def test_every_rank_is_simulated(self, points):
        assert [p.rank_seconds.size for p in points] == [1, 8, 64, 512, 4096]


class TestGhostExchangeFailureModel:
    """The paper's 32,768-GPU observation (Section 5.2)."""

    def test_reliable_at_paper_scales(self):
        from repro.mpi.netmodel import ghost_exchange_failure_probability as p

        for nranks in (1, 8, 64, 512, 4096):
            assert p(nranks, 20) == 0.0

    def test_mostly_fails_at_32k(self):
        from repro.mpi.netmodel import ghost_exchange_failure_probability as p

        assert p(32768, 20) > 0.9

    def test_monotone_in_scale_and_steps(self):
        from repro.mpi.netmodel import ghost_exchange_failure_probability as p

        assert p(8192, 20) < p(16384, 20) < p(32768, 20)
        assert p(32768, 5) < p(32768, 50)

    def test_probability_bounds(self):
        from repro.mpi.netmodel import ghost_exchange_failure_probability as p

        for nranks in (4096, 10000, 75264):
            for steps in (1, 100, 10000):
                assert 0.0 <= p(nranks, steps) <= 1.0
