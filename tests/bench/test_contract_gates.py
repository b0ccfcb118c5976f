"""The contract gates of the benchmark scripts exit 1 on violation.

Each gate's measurement is wall-clock and runs in CI only; here it is
replaced by a fixed reading on either side of the limit, so the pass
or fail decision is deterministic.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("traced, code", [(1.05, 0), (1.2, 1)], ids=["pass", "fail"])
def test_trace_overhead_gate(monkeypatch, capsys, traced, code):
    bench = _load("bench_trace_overhead")
    monkeypatch.setattr(bench, "measure_overhead", lambda: (1.0, traced))
    assert bench.main() == code
    assert ("exceeds the 1.10x limit" in capsys.readouterr().err) == bool(code)


class TestServeGate:
    ARGV = ["--L", "8", "--steps", "2", "--clients", "2", "--requests", "2",
            "--out", "-"]

    def test_fails_when_no_hits_were_measured(self, capsys):
        bench = _load("bench_serve")
        assert bench.main(["--hit-fraction", "0", *self.ARGV]) == 1
        assert "ratio not measured" in capsys.readouterr().err

    @pytest.mark.parametrize("hit_p99, code", [(0.05, 0), (0.5, 1)], ids=["pass", "fail"])
    def test_ratio_limit(self, monkeypatch, capsys, hit_p99, code):
        from repro.serve import loadgen

        def fake_load(settings, **kwargs):
            report = loadgen.LoadReport(
                clients=2, requests=2, hit_fraction=0.5, completed=4,
                cache_hits=2, wall_seconds=1.0,
                hit_latencies=[hit_p99] * 2, miss_latencies=[1.0] * 2,
            )
            stats = {"store": {"hits": 2, "misses": 2, "hit_rate": 0.5},
                     "coalesced": 0}
            return report, stats

        monkeypatch.setattr(loadgen, "run_load", fake_load)
        assert _load("bench_serve").main(self.ARGV) == code
        assert ("above the 0.10 contract" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize("ratio, code", [(0.1, 0), (0.5, 1)], ids=["pass", "fail"])
def test_jit_warm_gate(monkeypatch, capsys, tmp_path, ratio, code):
    bench = _load("bench_jitcache")
    measured = {
        "shape_classes": 6, "cold_p50_seconds": 1e-3,
        "warm_p50_seconds": ratio * 1e-3, "warm_cold_ratio": ratio,
        "plans_bit_identical": True,
    }
    monkeypatch.setattr(bench, "measure_warm_start", lambda quick: measured)
    assert bench.main(["--quick", "--out", str(tmp_path / "j.json")]) == code
    assert ("exceeds the 0.20 limit" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize("speedup, code", [(6.0, 0), (2.0, 1)], ids=["pass", "fail"])
def test_vspmd_rate_gate(monkeypatch, capsys, tmp_path, speedup, code):
    bench = _load("bench_vspmd")
    monkeypatch.setattr(bench, "measure_rate_speedup", lambda: speedup)
    argv = ["--ranks", "64", "--jobs", "1", "--out", str(tmp_path / "v.json")]
    assert bench.main(argv) == code
    assert ("below the 5.0x floor" in capsys.readouterr().err) == bool(code)
