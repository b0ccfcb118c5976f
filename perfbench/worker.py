"""One benchmark iteration in a fresh interpreter.

``run.py`` starts one worker per iteration; by hand::

    python3 perfbench/worker.py --workload serve-mixed --seed 3 \\
        --workdir .perfbench/w --spawned 0 --reference perfbench/reference.json

The worker imports the program from ``src/``, prepares the workload's
inputs, times the user command, times the host's speed probe
(``speed.py``), snapshots the layer totals, and then checks the outputs
against the reference. Its last stdout line is one
JSON object (see ``run.py`` for how iterations are combined).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: the layer times must add up to the traced wall time within this share
ADD_UP_TOLERANCE = 0.05


def layer_metrics(rec, workload, wall: float) -> tuple[dict, dict, list[str]]:
    """Per-layer values, per-lane views and add-up problems of a traced run.

    Times come from the primary view (main lane + first worker lane),
    whose exclusive times add up to ``wall``; ``.lane1`` metrics come
    from the second worker lane. Counts are summed over every lane.
    """
    import layers
    import workloads
    from repro.gpu.jit import trace_memo

    names = workload.lanes or (None,)
    views = {name or "MainThread": rec.view(name) for name in names}
    primary_lane = names[0] or "MainThread"
    primary = views[primary_lane]
    values = {name: 0.0 for name, _ in workloads.PER_LAYER}
    unknown = set(primary) - set(values)
    values.update((metric, seconds) for metric, seconds in primary.items()
                  if metric in values)
    if len(names) > 1:
        second = views[names[1]]
        values["mpi.recv.wait_s.lane1"] = second.get("mpi.recv.wait_s", 0.0)
        values["gpu.kernel.execute_s.lane1"] = second.get(
            "gpu.kernel.execute_s", 0.0)
    values["core.step.s"] = sum(rec.samples("core.step", primary_lane))
    for counter in workloads.COUNTERS:
        values[counter] = rec.total_count(counter)
    tiers = trace_memo().tiers
    answered = sum(tiers.values())
    values["gpu.jit.memo_hit_ratio"] = tiers["memo"] / answered if answered else 0.0
    values["traced.wall_s"] = wall

    problems = [f"unlisted layer metric {m}" for m in sorted(unknown)]
    for lane, view in views.items():
        total = sum(view.values())
        if abs(total - wall) > ADD_UP_TOLERANCE * wall:
            problems.append(f"{lane}: layers add up to {total:.4f} s, "
                            f"wall is {wall:.4f} s")
        if view.get(layers.RESIDUE, 0.0) < -ADD_UP_TOLERANCE * wall:
            problems.append(f"{lane}: negative residue (double counting)")
    return values, views, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--skip-slow-checks", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import layers
    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.tiny, Path(args.workdir),
        slow_checks=not args.skip_slow_checks)
    workload.prepare()
    rec = layers.Recorder()
    layers.install(rec, full=args.trace)
    workload.probe()
    command = workload.command
    if args.trace:
        command = rec.timed(layers.RESIDUE, command)

    ready = time.monotonic()
    start = time.perf_counter()
    command()
    wall = time.perf_counter() - start
    out = {
        "traced": args.trace,
        "wall_s": wall,
        "setup_s": (workload.ready or ready) - args.spawned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # after the memory reading: the probe allocates arrays of its own
        "probe_s": speed.probe(),
    }
    problems = []
    if args.trace:
        # snapshot before the checks: reading outputs back goes through
        # wrapped functions too
        out["layers"], out["views"], problems = layer_metrics(rec, workload, wall)

    facts = workload.facts(rec, wall)
    reference = json.loads(Path(args.reference).read_text())
    ref = reference["workloads"].get(workload.ref_key, {}).get(
        str(workload.settings_seed))
    if ref is None:
        problems.append(f"no reference for {workload.ref_key} "
                        f"seed {workload.settings_seed}")
    else:
        problems += workload.check(facts, ref)
    if args.trace:
        out["layers"].update(workload.layer_values(facts, rec))
    failed = facts["failed"] or (1 if problems else 0)
    out.update(
        ops_ms=facts["ops_ms"],
        ops_per_s=facts["ops_per_s"],
        attempted=facts["attempted"],
        failed=failed,
        determinism=facts.get("determinism"),
        problems=problems,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
