"""Virtual SPMD workflow mode (repro.core.virtual)."""

import numpy as np
import pytest

from repro.core.settings import GrayScottSettings
from repro.core.virtual import VirtualRunResult, VirtualWorkflow
from repro.util.errors import ConfigError


def _settings(**kw):
    base = dict(L=64, steps=4, plotgap=2, backend="julia")
    base.update(kw)
    return GrayScottSettings(**base)


class TestConstruction:
    def test_cpu_backend_rejected(self):
        with pytest.raises(ConfigError, match="GPU backend"):
            VirtualWorkflow(_settings(backend="cpu"))

    def test_nranks_defaults_to_settings(self):
        wf = VirtualWorkflow(_settings(ranks=16))
        assert wf.nranks == 16

    def test_explicit_nranks_wins(self):
        wf = VirtualWorkflow(_settings(ranks=16), nranks=4)
        assert wf.nranks == 4

    def test_settings_grid_is_local_block(self):
        wf = VirtualWorkflow(_settings(L=64), nranks=8)
        assert wf.local_shape == (64, 64, 64)


class TestRun:
    @pytest.fixture(scope="class")
    def serial(self):
        return VirtualWorkflow(_settings(), nranks=16).run()

    @pytest.fixture(scope="class")
    def overlapped(self):
        return VirtualWorkflow(_settings(), nranks=16, overlap=True).run()

    def test_result_shape(self, serial):
        assert isinstance(serial, VirtualRunResult)
        assert serial.nranks == 16
        assert serial.steps == 4
        assert serial.output_steps == 2
        assert serial.rank_finish_seconds.shape == (16,)
        assert serial.events_processed > 0

    def test_all_ranks_agree_on_checksum(self, serial):
        # the final allreduce makes every rank's return value identical
        assert len(set(serial.results)) == 1

    def test_overlap_is_never_slower(self, serial, overlapped):
        assert overlapped.elapsed_seconds < serial.elapsed_seconds

    def test_overlap_bounded_below_by_components(self, overlapped):
        # per-step time can't beat max(kernel, halo); whole run can't
        # beat steps * kernel occupancy
        floor = overlapped.steps * max(
            overlapped.kernel_seconds_per_step, overlapped.comm_seconds_mean
        )
        assert overlapped.elapsed_seconds >= floor

    def test_collectives_counted(self, serial):
        # one barrier per output step + the final allreduce
        assert serial.collectives_per_rank == serial.output_steps + 1

    def test_variability_metric(self, serial):
        finish = serial.rank_finish_seconds
        expected = (finish.max() - finish.min()) / finish.mean()
        assert serial.variability == pytest.approx(expected)

    def test_render_mentions_mode_and_ranks(self, serial, overlapped):
        assert "serial" in serial.render()
        assert "overlapped" in overlapped.render()
        assert "16 ranks" in serial.render()

    def test_deterministic_across_runs(self, serial):
        again = VirtualWorkflow(_settings(), nranks=16).run()
        np.testing.assert_array_equal(
            again.rank_finish_seconds, serial.rank_finish_seconds
        )
        assert again.elapsed_seconds == serial.elapsed_seconds


class TestFrontierScale:
    def test_4096_ranks_single_thread_with_perfetto_export(self):
        """ISSUE acceptance: a 4,096-virtual-rank modeled run completes
        without threads and exports a valid Perfetto trace."""
        import threading

        from repro.observe.export import to_chrome_trace, validate_chrome_trace
        from repro.observe.trace import Tracer

        tracer = Tracer()
        threads_before = threading.active_count()
        result = VirtualWorkflow(
            _settings(steps=2, plotgap=2), nranks=4096, overlap=True,
            tracer=tracer,
        ).run()
        assert threading.active_count() == threads_before
        assert result.nranks == 4096
        assert result.nnodes == 512
        assert len(set(result.results)) == 1
        obj = to_chrome_trace(tracer)
        validate_chrome_trace(obj)
        assert len(obj["traceEvents"]) > 4096


class TestNetworkWiring:
    """Satellite: virtual SPMD charges the placement-aware LogGP model
    and (optionally) contends ranks for the per-node NIC pool."""

    def test_p2p_callback_charges_inter_node_sends(self):
        from repro.cluster.placement import Placement
        from repro.mpi.netmodel import NetModel
        from tests.oracles.engine import Engine
        from tests.oracles.vspmd import run_virtual_spmd

        net = NetModel(Placement(16))

        def program(comm):
            # rank 0 lives on node 0, rank 15 on node 1: the send
            # crosses the interconnect and must cost LogGP time
            if comm.rank == 0:
                comm.send(15, nbytes=float(1 << 20))
            elif comm.rank == 15:
                yield from comm.recv(0)
            yield from comm.barrier()

        free = Engine()
        run_virtual_spmd(program, 16, engine=free)
        charged = Engine()
        run_virtual_spmd(program, 16, engine=charged, p2p_seconds=net.p2p_seconds)
        assert charged.now > free.now
        assert charged.now >= net.p2p_seconds(0, 15, float(1 << 20))

    def test_workflow_default_run_uses_netmodel(self):
        # the workflow-level default wires NetModel.p2p_seconds, so a
        # run's modeled time exceeds the per-rank compute-only floor
        result = VirtualWorkflow(_settings(), nranks=16).run()
        assert result.elapsed_seconds > 0

    def test_nic_contention_is_opt_in_and_never_faster(self):
        base = VirtualWorkflow(_settings(), nranks=16, overlap=True).run()
        contended = VirtualWorkflow(
            _settings(), nranks=16, overlap=True, nic_contention=True
        ).run()
        assert contended.elapsed_seconds >= base.elapsed_seconds

    def test_nic_contention_deterministic(self):
        first = VirtualWorkflow(
            _settings(), nranks=16, nic_contention=True
        ).run()
        again = VirtualWorkflow(
            _settings(), nranks=16, nic_contention=True
        ).run()
        np.testing.assert_array_equal(
            first.rank_finish_seconds, again.rank_finish_seconds
        )

    @pytest.mark.parametrize("precision,itemsize", [("float64", 8), ("float32", 4)])
    def test_halo_faces_priced_at_the_field_itemsize(self, precision, itemsize):
        # the real exchange sends the field's dtype, so a float32 run's
        # faces are half the bytes of a float64 run's
        from repro.mpi.netmodel import HaloExchangeModel
        from tests.oracles import netmodel as oracle

        wf = VirtualWorkflow(_settings(precision=precision), nranks=16)
        halo = HaloExchangeModel(
            wf.placement, wf.cart_dims, wf.local_shape,
            itemsize=itemsize, machine=wf.machine,
        )
        expected = np.array(
            [oracle.rank_step_breakdown(halo, r).total_seconds for r in range(16)]
        )
        np.testing.assert_array_equal(wf._comm_seconds(), expected)
        result = wf.run()
        assert result.comm_seconds_mean == pytest.approx(expected.mean())

    def test_nic_pool_matches_node_spec(self):
        from repro.cluster.frontier import FRONTIER

        assert FRONTIER.node.nics_per_node == 4
