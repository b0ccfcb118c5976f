"""Every paper experiment's shape checks must hold.

These are the headline assertions of the reproduction: each bench
module declares the paper's qualitative findings as ``shape_checks``
and this suite requires all of them to pass.
"""

import pytest

from repro.bench import fig5, fig6, fig7, fig8, listings, table1, table2, table3


def _assert_all(checks: dict):
    failed = {name: ok for name, ok in checks.items() if not ok}
    assert not failed, f"shape checks failed: {sorted(failed)}"


class TestTable1:
    def test_shape_checks(self):
        _assert_all(table1.shape_checks(table1.run()))

    def test_render(self):
        assert "Frontier" in table1.render(table1.run())


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2.run()

    def test_shape_checks(self, rows):
        _assert_all(table2.shape_checks(rows))

    def test_modeled_values_near_paper(self, rows):
        for row in rows:
            assert row.effective_gb_s == pytest.approx(row.paper_effective, rel=0.15)

    def test_render(self, rows):
        text = table2.render(rows)
        assert "HIP single variable" in text
        assert "Theoretical peak" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def columns(self):
        return table3.run()

    def test_shape_checks(self, columns):
        _assert_all(table3.shape_checks(columns))

    def test_durations_near_paper(self, columns):
        for c in columns:
            assert c.duration_ms == pytest.approx(c.paper["avg_duration_ms"], rel=0.1)

    def test_traffic_near_paper(self, columns):
        for c in columns:
            assert c.fetch_gb == pytest.approx(c.paper["fetch_gb"], rel=0.1)
            assert c.write_gb == pytest.approx(c.paper["write_gb"], rel=0.1)

    def test_render(self, columns):
        text = table3.render(columns)
        assert "FETCH_SIZE (GB)" in text and "(paper values)" in text


class TestFig5:
    def test_shape_checks(self):
        result = fig5.run(L=16, steps=3)
        _assert_all(fig5.shape_checks(result))
        assert "JIT" in fig5.render(result)


class TestFig6:
    @pytest.fixture(scope="class")
    def points(self):
        return fig6.run_frontier()

    def test_shape_checks(self, points):
        _assert_all(fig6.shape_checks(points))

    def test_render(self, points):
        text = fig6.render_frontier(points)
        assert "4096" in text or "4,096" in text

    def test_mini_runs(self):
        points = fig6.run_mini(local_cells=8, steps=2, ranks=(1, 2))
        assert len(points) == 2
        assert all(p.max_seconds > 0 for p in points)
        assert "real SPMD" in fig6.render_mini(points)


class TestFig7:
    def test_shape_checks(self):
        result = fig7.run(ngpus=512)  # smaller population, same stats
        _assert_all(fig7.shape_checks(result))

    def test_render(self):
        text = fig7.render(fig7.run(ngpus=256))
        assert "JIT first run" in text and "histogram" in text

    def test_cost_factor_is_the_inverse_bandwidth_ratio(self):
        import numpy as np

        result = fig7.Fig7Result(
            ngpus=4, steps=10,
            optimized_gb_s=np.array([100.0, 100.0, 120.0, 80.0]),
            jit_gb_s=np.array([10.0, 6.0, 8.0, 8.0]),
        )
        assert result.jit_fraction == pytest.approx(0.08)
        assert result.jit_cost_factor == pytest.approx(12.5)

    def test_deterministic(self):
        import numpy as np

        a = fig7.run(ngpus=64, seed=3)
        b = fig7.run(ngpus=64, seed=3)
        assert np.array_equal(a.jit_gb_s, b.jit_gb_s)


class TestFig8:
    @pytest.fixture(scope="class")
    def points(self):
        return fig8.run_frontier()

    def test_shape_checks(self, points):
        _assert_all(fig8.shape_checks(points))

    def test_render(self, points):
        assert "max bandwidth" in fig8.render_frontier(points)

    def test_mini_real_io(self):
        points = fig8.run_mini(local_cells=8, ranks=(1, 2))
        assert all(p.write_seconds > 0 for p in points)
        assert "real BP5 writes" in fig8.render_mini(points)


class TestListings:
    def test_listing1(self):
        result = listings.run_listing1(L=12, steps=8)
        _assert_all(listings.listing1_shape_checks(result))

    def test_listing4(self):
        result = listings.run_listing4()
        _assert_all(listings.listing4_shape_checks(result))
        assert "14 unique loads, 2 stores" in result.ir
