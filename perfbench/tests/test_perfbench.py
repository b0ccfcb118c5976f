"""Tests of the benchmark itself: attribution algebra, tiny runs, failing checks.

    python3 -m pytest perfbench/tests -q          # from the repository root
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, *extra: str, cwd: Path = ROOT, trace: int = 1):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_views_add_up_to_the_root_span():
    rec = layers.Recorder()
    leaf = rec.timed("b", lambda: sum(range(1000)))
    inner = rec.timed("a", lambda: [leaf() for _ in range(3)])
    local = rec.timed("c", lambda: sum(range(5000)))

    def command():
        worker = threading.Thread(target=inner, name="rank-0")
        worker.start()
        local()
        worker.join(timeout=10)
        assert not worker.is_alive()

    rec.timed(layers.RESIDUE, command)()
    root = sum(lane.roots_s for lane in rec.named("MainThread"))
    view = rec.view("rank-0")
    assert set(view) == {"a", "b", "c", layers.RESIDUE}
    assert sum(view.values()) == pytest.approx(root, rel=1e-9)
    assert all(seconds >= 0 for seconds in view.values())
    assert rec.named("rank-0")[0].stack == []


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(workloads.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run_is_correct_and_adds_up(workload):
    proc, result = run_bench(workload)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["traced.wall_s"]["value"] > 0


def test_tiny_untraced_run_reports_every_end_to_end_metric():
    proc, result = run_bench("serve-mixed", trace=0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tampered_reference_fails_the_run(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    seed = str(workloads.settings_seed(3))
    entry = reference["workloads"]["workflow-2rank@tiny"][seed]
    entry["analysis"]["V_max"] += 1e-6
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))

    proc, result = run_bench("workflow-2rank", "--reference", str(tampered),
                             trace=0)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "CHECK FAILED" in proc.stdout


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("virtual-256k", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
