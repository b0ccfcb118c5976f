"""End-to-end benchmark of the Gray-Scott workflow system, with per-layer attribution.

    python3 perfbench/run.py --workload workflow-2rank --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each iteration runs the workload's
user command in a fresh interpreter (``worker.py``), so set-up time is
measured on every iteration; iterations repeat until ``--seconds`` of
measuring have passed (at least two). The outputs of every iteration
are checked against ``reference.json`` and against each other.

``--trace 0`` reports the end-to-end metrics of the best iteration,
scaled to the host's reference speed by the probe every iteration also
times (``speed.py``; the table shows the raw values next to them and
the scale); ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones plus the tracing overhead (traced / untraced ``wall_s``).
Metric definitions and the layer -> end-to-end map are in METRICS.md.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every check
passed; without the program's sources next to this directory the
benchmark exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import speed  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 2
#: whole-run budget; a run must end within 180 s
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
)


def run_iteration(args, index: int, traced: bool, timeout: float) -> dict | None:
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--reference", str(args.reference)]
    cmd += ["--trace"] if traced else []
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--skip-slow-checks"] if index else []
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: iteration {index} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: iteration {index} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def raw_end_to_end(results: list[dict], tail: float) -> dict:
    """Each metric's best iteration (memory: the median one).

    The program is deterministic, so an iteration slower than the
    fastest is the host interfering (ten 30 s runs on the 2-vCPU VM:
    see METRICS.md); op percentiles are taken per iteration.
    """
    def best(key, pick=min):
        return pick(key(r) for r in results)

    return {
        "setup_s": best(lambda r: r["setup_s"]),
        "wall_s": best(lambda r: r["wall_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "op_p50_ms": best(lambda r: workloads.percentile(r["ops_ms"], 50)),
        "op_tail_ms": best(lambda r: workloads.percentile(r["ops_ms"], tail)),
        "ops_per_s": best(lambda r: r["ops_per_s"], max),
    }


def end_to_end(raw: dict, scale: float) -> dict:
    """``raw`` in reference-speed units (see speed.py)."""
    return {
        name: value if name == "peak_rss_mb"
        else value / scale if name == "ops_per_s"
        else value * scale
        for name, value in raw.items()
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _ in workloads.PER_LAYER
              if name != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced))
    return values


def print_tables(args, metrics: dict, units: dict, results: list[dict],
                 attempted: int, failed: int, raw: dict | None,
                 scale: float) -> None:
    print(f"## {args.workload} (seed {args.seed}, {len(results)} iterations, "
          f"trace {args.trace}, speed scale {scale:.4f})\n")
    if raw is None:
        print("| metric | value | unit |\n|---|---:|---|")
        for name, value in metrics.items():
            print(f"| {name} | {value:.6g} | {units[name]} |")
    else:
        print("| metric | value | raw | unit |\n|---|---:|---:|---|")
        for name, value in metrics.items():
            print(f"| {name} | {value:.6g} | {raw[name]:.6g} | {units[name]} |")
    print(f"| fail_ratio | {failed / max(attempted, 1):.6g} | "
          + ("" if raw is None else " | ")
          + f"ratio ({failed}/{attempted}) |")
    views = [r["views"] for r in results if r.get("views")]
    if views:
        lanes = list(views[0])
        names = sorted({m for v in views for lane in lanes for m in v[lane]})
        print("\nexclusive seconds per lane view (median over traced "
              "iterations; each column adds up to traced wall_s)\n")
        print("| metric | " + " | ".join(f"main+{lane}" if lane != "MainThread"
                                          else lane for lane in lanes)
              + " |\n|---|" + "---:|" * len(lanes))
        for name in names:
            cells = [statistics.median(v[lane].get(name, 0.0) for v in views)
                     for lane in lanes]
            print(f"| {name} | " + " | ".join(f"{c:.4f}" for c in cells) + " |")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--reference", type=Path,
                        default=HERE / "reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2

    started = time.monotonic()
    results: list[dict] = []
    while True:
        elapsed = time.monotonic() - started
        if len(results) >= MIN_ITERATIONS:
            # stop when another iteration of the mean length would
            # overrun the measuring window
            mean = elapsed / len(results)
            if elapsed + mean > args.seconds:
                break
        traced = bool(args.trace) and len(results) % 2 == 1
        result = run_iteration(args, len(results), traced,
                               RUN_LIMIT_S - elapsed)
        if result is None:
            return 1
        results.append(result)
    try:
        (ROOT / ".perfbench").rmdir()
    except OSError:
        pass

    problems = [f"iteration {i}: {p}"
                for i, r in enumerate(results) for p in r["problems"]]
    digests = {r["determinism"] for r in results
               if r["determinism"] is not None}
    if len(digests) > 1:
        problems.append("outputs differ between iterations of one seed")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) or (1 if problems else 0)

    tail = workloads.WORKLOADS[args.workload].tail
    untraced = [r for r in results if not r["traced"]]
    scale = speed.scale(r["probe_s"] for r in results)
    raw = None
    if args.trace:
        values = per_layer([r for r in results if r["traced"]], untraced)
        units = dict(workloads.PER_LAYER)
    else:
        raw = raw_end_to_end(untraced, tail)
        values = end_to_end(raw, scale)
        units = dict(END_TO_END)
    print_tables(args, values, units, results, attempted, failed, raw, scale)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
