import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.stats import (
    classify_pattern,
    field_summary,
    histogram,
    pattern_metrics,
)
from repro.util.errors import ReproError


class TestFieldSummary:
    def test_basic_stats(self):
        data = np.array([0.0, 0.5, 1.0])
        s = field_summary(data)
        assert s["min"] == 0.0 and s["max"] == 1.0
        assert s["mean"] == pytest.approx(0.5)
        assert s["active_cells"] == 2

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            field_summary(np.array([]))


class TestHistogram:
    def test_counts_sum_to_size(self):
        data = np.random.default_rng(0).random(1000)
        counts, edges = histogram(data, bins=10)
        assert counts.sum() == 1000
        assert len(edges) == 11

    def test_fixed_range(self):
        counts, edges = histogram(np.array([0.5]), bins=4, value_range=(0, 1))
        assert edges[0] == 0 and edges[-1] == 1


class TestPatternMetrics:
    def test_empty_field(self):
        m = pattern_metrics(np.zeros((8, 8)))
        assert m["active_fraction"] == 0.0
        assert m["components"] == 0

    def test_spots(self):
        v = np.zeros((20, 20))
        for x, y in ((3, 3), (10, 10), (16, 5), (5, 16)):
            v[x: x + 2, y: y + 2] = 0.5
        m = pattern_metrics(v)
        assert m["components"] == 4
        assert m["active_fraction"] == pytest.approx(16 / 400)
        assert m["largest_component_fraction"] == pytest.approx(0.25)

    def test_single_blob(self):
        v = np.zeros((20, 20))
        v[5:15, 5:15] = 0.5
        m = pattern_metrics(v)
        assert m["components"] == 1
        assert m["largest_component_fraction"] == 1.0
        assert 0 < m["interface_density"] < 1

    def test_threshold(self):
        v = np.full((4, 4), 0.05)
        assert pattern_metrics(v, threshold=0.1)["active_fraction"] == 0.0
        assert pattern_metrics(v, threshold=0.01)["active_fraction"] == 1.0


class TestClassifyPattern:
    def test_decayed(self):
        assert classify_pattern(np.zeros((16, 16))) == "decayed"

    def test_uniform(self):
        assert classify_pattern(np.full((16, 16), 0.5)) == "uniform"

    def test_spots(self):
        v = np.zeros((32, 32))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.integers(2, 28, 2)
            v[x: x + 2, y: y + 2] = 0.5
        assert classify_pattern(v) in ("spots", "labyrinth")

    def test_blob(self):
        v = np.zeros((32, 32))
        v[8:24, 8:24] = 0.5
        assert classify_pattern(v) == "blob"


class TestRunPathIsScipyFree:
    """Only ``pattern_metrics`` needs scipy; a run and its analysis do not."""

    def test_serial_julia_run_with_analysis_loads_no_scipy(self, tmp_path):
        settings = dict(L=8, steps=2, plotgap=1, seed=1, backend="julia",
                        ranks=0, output="tiny.bp")
        (tmp_path / "settings.json").write_text(json.dumps(settings))
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parents[2] / 'src')!r})\n"
            "from repro.cli import main\n"
            "rc = main(['run', 'settings.json'])\n"
            "print('scipy loaded' if 'scipy' in sys.modules else 'scipy-free')\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "analysis.V_max" in proc.stdout  # the analysis stage ran
        assert proc.stdout.splitlines()[-1] == "scipy-free"
