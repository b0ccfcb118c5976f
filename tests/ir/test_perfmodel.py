"""Tests for counterfactual traffic prediction over post-rewrite IR."""

import json

from repro.ir.build import workflow_module
from repro.ir.perfmodel import counterfactual, predict_module, simulate_module


class TestAnalyticPrediction:
    def test_per_launch_costs(self):
        module = workflow_module()
        cost = predict_module(module, shape=(256, 256, 256))
        assert len(cost.funcs) == 2
        gs, lap = cost.funcs
        assert gs.name == "_kernel_gray_scott"
        assert gs.unique_loads == 14 and gs.unique_stores == 2
        assert lap.unique_loads == 7 and lap.unique_stores == 1
        assert cost.fetch_bytes > 0 and cost.seconds > 0

    def test_itemsize_scales_traffic(self):
        module = workflow_module()
        f64 = predict_module(module, shape=(128, 128, 128))
        f32 = predict_module(module, shape=(128, 128, 128), itemsize=4)
        assert f64.total_bytes > f32.total_bytes

    def test_counterfactual_fusion_saves_fetches(self):
        result = counterfactual(
            workflow_module(), shape=(256, 256, 256),
            passes="fuse,rle,cse,dse",
        )
        # fusion + RLE drop the laplacian's 7 re-loads per cell: in the
        # streaming (nothing-cached-between-launches) regime the fetch
        # traffic must fall and the memory-bound speedup exceed 1
        assert result.after.fetch_bytes < result.before.fetch_bytes
        assert result.bytes_saved > 0
        assert result.speedup > 1.0
        assert result.op_counts_before["load"] == 21
        assert result.op_counts_after["load"] == 14

    def test_render_and_json(self):
        result = counterfactual(workflow_module(), shape=(64, 64, 64))
        text = result.render()
        assert "counterfactual for module gray_scott_step at 64x64x64" in text
        assert "speedup" in text
        doc = json.loads(json.dumps(result.to_json()))
        assert doc["bytes_saved"] > 0
        assert doc["before"]["fetch_bytes"] > doc["after"]["fetch_bytes"]


class TestExactSimulation:
    def test_sim_carries_cache_state_across_launches(self):
        module = workflow_module()
        # tiny domain, huge cache: the second launch re-reads u from
        # cache, so the simulated fetch undercuts the analytic streaming
        # model which charges every launch its full passes
        shape = (16, 16, 16)
        sim = simulate_module(module, shape=shape, capacity_bytes=1 << 24)
        analytic = predict_module(module, shape=shape)
        assert sim.fetch_bytes < analytic.fetch_bytes

    def test_counterfactual_delta_exact_sim(self):
        # THE acceptance check: a rewrite pass demonstrably changes
        # TraceCacheSim predicted traffic on Gray-Scott. At 24^3 with a
        # 64 KiB cache the working set thrashes between launches, so
        # fusing (+RLE) removes real simulated fetches.
        result = counterfactual(
            workflow_module(), shape=(24, 24, 24),
            passes="fuse,rle,cse,dse",
            exact=True, capacity_bytes=64 * 1024,
        )
        assert result.after.fetch_bytes < result.before.fetch_bytes
        assert result.bytes_saved > 100_000
        assert result.speedup > 1.0

    def test_each_launch_reports_its_own_counters(self):
        # the simulator's LRU state spans the module, but every launch's
        # hits and misses are that launch's share of its own requests
        cost = simulate_module(
            workflow_module(), shape=(24, 24, 24), capacity_bytes=64 * 1024
        )
        for func in cost.funcs:
            traffic = func.traffic
            assert traffic.tcc_hits + traffic.tcc_misses == traffic.tcc_requests
        lap = cost.funcs[1].traffic
        assert lap.tcc_requests == 22**3 * 8

    def test_tiled_module_matches_the_oracle(self):
        from repro.ir.passes import PassManager
        from tests.oracles.cache import ReferenceCache

        rewritten, _ = PassManager("fuse,rle,cse,dse,tile=5x7x3").run(
            workflow_module()
        )
        shape = (16, 16, 16)
        cost = simulate_module(rewritten, shape=shape, capacity_bytes=64 * 1024)
        ref = ReferenceCache(64 * 1024)
        for func, got in zip(rewritten.funcs, cost.funcs):
            assert func.tile == (5, 7, 3)
            assert got.traffic == ref.multi_sweep(
                shape, func.itemsize, func.loads_by_array(),
                func.stores_by_array(), func.tile,
            )
