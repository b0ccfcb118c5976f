"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation switches one modeled mechanism off (or swaps an
algorithm) and checks the paper-visible consequence:

- TCC working-set effect: without the 3-pass fetch at 1024^3, Table 2's
  measured-vs-effective bandwidth gap disappears;
- JIT vs AOT: precompiling (the mechanism the paper left unexplored)
  collapses Figure 7's two distributions into one;
- GPU-aware MPI (the experiment the paper did not run): removes the
  pack + staging cost of the host-memory exchange in Figure 6's model;
- BP5 aggregation: one subfile per rank vs. one per node in the real
  mini-scale engine.
"""

import numpy as np
import pytest
from conftest import print_block

from repro.bench import fig7
from repro.cluster.frontier import GcdSpec
from repro.cluster.placement import Placement
from repro.gpu.proxy import grayscott_launch_cost
from repro.mpi.netmodel import HaloExchangeModel
from repro.util.units import GB


class TestCacheWorkingSetAblation:
    def test_big_tcc_removes_three_pass_traffic(self, benchmark):
        """With an (hypothetical) TCC that fits 3 planes, FETCH_SIZE drops
        to ~1x and the total/effective bandwidth gap closes."""
        shape = (1024, 1024, 1024)
        real = grayscott_launch_cost(shape, "hip", variant="1var_norand")
        big_cache = GcdSpec(tcc_bytes=64 * (1 << 20))  # 64 MB TCC
        ablated = benchmark(
            grayscott_launch_cost, shape, "hip",
            variant="1var_norand", spec=big_cache,
        )
        assert real.fetch_bytes / ablated.fetch_bytes == pytest.approx(3.0, rel=0.01)
        assert ablated.seconds < real.seconds
        print_block(
            "Ablation: TCC working set",
            f"real 8 MB TCC : fetch {real.fetch_bytes/1e9:.2f} GB, "
            f"{real.seconds*1e3:.2f} ms\n"
            f"64 MB TCC     : fetch {ablated.fetch_bytes/1e9:.2f} GB, "
            f"{ablated.seconds*1e3:.2f} ms",
        )


class TestAotAblation:
    def test_aot_collapses_fig7(self, benchmark):
        jit = fig7.run(ngpus=1024)
        aot = benchmark(fig7.run, ngpus=1024, aot=True)
        assert jit.jit_cost_factor > 10
        assert aot.jit_cost_factor == pytest.approx(1.0, rel=1e-6)
        # identical up to fp association: (S*b)/(S*t) vs b/t
        assert np.allclose(aot.jit_gb_s, aot.optimized_gb_s, rtol=1e-12)
        print_block(
            "Ablation: AOT compilation (Figure 7)",
            f"JIT first-run bandwidth: {jit.jit_gb_s.mean():.1f} GB/s "
            f"({jit.jit_fraction*100:.1f}% of optimized)\n"
            f"AOT first-run bandwidth: {aot.jit_gb_s.mean():.1f} GB/s (100%)",
        )

    def test_aot_device_charges_no_compile_time(self):
        from repro.core.settings import GrayScottSettings
        from repro.core.simulation import Simulation
        from repro.gpu.rocprof import device_events
        from repro.observe import trace as observe

        settings = GrayScottSettings(L=12, noise=0.0, backend="julia")
        with observe.session() as tracer:
            sim = Simulation(settings)
            sim.device.aot = True
            sim.device.jit._cache.clear()
            sim.run(2)
        kinds = [kind for kind, _ in device_events(tracer.spans)]
        assert kinds.count("kernel") == 2 and "compile" not in kinds


class TestGpuAwareMpiAblation:
    @pytest.mark.parametrize("gpu_aware", [False, True])
    def test_exchange_cost(self, benchmark, gpu_aware):
        model = HaloExchangeModel(
            Placement(64), (4, 4, 4), (1024, 1024, 1024), gpu_aware=gpu_aware
        )
        cost = benchmark(model.rank_step_seconds, 0)
        if gpu_aware:
            assert cost.pack_seconds == 0.0
            assert cost.d2h_h2d_seconds == 0.0
        else:
            assert cost.d2h_h2d_seconds > cost.transfer_seconds  # 36 GB/s link

    def test_gpu_aware_speedup_summary(self):
        host = HaloExchangeModel(Placement(64), (4, 4, 4), (1024,) * 3)
        aware = HaloExchangeModel(
            Placement(64), (4, 4, 4), (1024,) * 3, gpu_aware=True
        )
        t_host = host.rank_step_seconds(0).total_seconds
        t_aware = aware.rank_step_seconds(0).total_seconds
        assert t_aware < t_host
        print_block(
            "Ablation: GPU-aware MPI (paper Section 3.3, not run there)",
            f"host-staged exchange : {t_host*1e3:.2f} ms/step/rank\n"
            f"GPU-aware exchange   : {t_aware*1e3:.2f} ms/step/rank "
            f"({t_host/t_aware:.1f}x faster)",
        )


class TestAggregationAblation:
    @pytest.mark.parametrize("aggregators", [1, 4])
    def test_subfiles_per_node_vs_per_rank(self, benchmark, tmp_path, aggregators):
        """Real engine: one subfile total vs one per rank (4 ranks)."""
        from repro.adios.api import Adios
        from repro.adios.bp5 import read_index
        from repro.mpi.executor import run_spmd

        counter = iter(range(10**6))

        def run():
            path = tmp_path / f"agg{aggregators}-{next(counter)}.bp"

            def worker(comm):
                adios = Adios()
                io = adios.declare_io("ab")
                io.set_parameter("NumAggregators", aggregators)
                n = 8
                u = io.define_variable(
                    "U", np.float64, shape=(n, n, n * 4),
                    start=(0, 0, n * comm.rank), count=(n, n, n),
                )
                with io.open(str(path), "w", comm=comm) as engine:
                    engine.begin_step()
                    engine.put(u, np.zeros((n, n, n), order="F"))
                    engine.end_step()
                return True

            run_spmd(worker, 4, timeout=60)
            return path

        path = benchmark.pedantic(run, rounds=3, iterations=1)
        assert read_index(path).nsubfiles == aggregators


class TestPlacementAblation:
    @pytest.mark.parametrize("strategy", ["block", "roundrobin"])
    def test_halo_cost_by_placement(self, benchmark, strategy):
        """srun block vs cyclic distribution: halo exchange cost."""
        from repro.cluster.placement import Placement as P

        model = HaloExchangeModel(
            P(64, strategy=strategy), (4, 4, 4), (1024, 1024, 1024)
        )

        def total():
            return sum(
                model.rank_step_seconds(r).total_seconds for r in range(64)
            ) / 64

        mean_cost = benchmark(total)
        benchmark.extra_info["mean_ms_per_step"] = round(mean_cost * 1e3, 3)

    def test_placement_ablation_summary(self):
        from repro.cluster.placement import Placement as P

        costs = {}
        for strategy in ("block", "roundrobin"):
            model = HaloExchangeModel(
                P(64, strategy=strategy), (4, 4, 4), (1024, 1024, 1024)
            )
            costs[strategy] = sum(
                model.rank_step_seconds(r).total_seconds for r in range(64)
            ) / 64
        assert costs["roundrobin"] > costs["block"]
        print_block(
            "Ablation: rank placement (srun block vs cyclic)",
            f"block      : {costs['block']*1e3:.2f} ms/step/rank\n"
            f"roundrobin : {costs['roundrobin']*1e3:.2f} ms/step/rank "
            f"({costs['roundrobin']/costs['block']:.2f}x worse)",
        )
