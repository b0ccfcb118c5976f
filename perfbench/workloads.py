"""The benchmark's workloads: seeded inputs, the user command, its checks.

Every iteration of a workload runs one user command in a fresh
interpreter (``worker.py``). Inputs derive from ``--seed``: the
settings seed is ``SEED_POOL[seed % len(SEED_POOL)]``, so
``reference.json`` can hold an independently computed answer for every
input. The service's request schedule is ``run_load``'s default seed for
every ``--seed``: the hit/miss mix drives the cost of an iteration, and a
seed-dependent mix would show up as run-to-run spread.

The *op* of a workload is its unit of work, whose latency distribution
gives ``op_p50_ms`` and ``op_tail_ms`` (see METRICS.md):

- ``workflow-2rank``: one ``Simulation.step`` on rank 0;
- ``virtual-256k`` / ``virtual-traced``: one epoch of the modeled run
  (the steps between two output barriers plus the previous output's
  write), timed between consecutive ``simulate_epoch`` returns;
- ``serve-mixed``: one cache-miss request, submit to answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

#: settings seeds; ``--seed n`` runs with SEED_POOL[n % len(SEED_POOL)]
SEED_POOL = (42, 7, 1234, 2023, 31337, 9001, 271828, 65537)

#: examples/settings/gs-demo.json, the paper's demo configuration
GS_DEMO = {
    "L": 48, "Du": 0.2, "Dv": 0.1, "F": 0.02, "k": 0.048, "dt": 1.0,
    "noise": 0.01, "steps": 100, "plotgap": 25, "backend": "julia",
    "ranks": 4,
}

#: per-layer metrics, in BENCHMARK.json order: (name, unit)
PER_LAYER = (
    ("core.step.calls", "count"),
    ("core.step.s", "s"),
    ("core.step.self_s", "s"),
    ("core.exchange.calls", "count"),
    ("core.exchange.self_s", "s"),
    ("core.workflow.self_s", "s"),
    ("mpi.send.calls", "count"),
    ("mpi.send.bytes", "B"),
    ("mpi.send.s", "s"),
    ("mpi.recv.wait_s", "s"),
    ("mpi.recv.wait_s.lane1", "s"),
    ("mpi.coll.calls", "count"),
    ("mpi.coll.wait_s", "s"),
    ("mpi.pack.s", "s"),
    ("mpi.unpack.s", "s"),
    ("gpu.launch.calls", "count"),
    ("gpu.launch.self_s", "s"),
    ("gpu.kernel.execute_s", "s"),
    ("gpu.kernel.execute_s.lane1", "s"),
    ("gpu.jit.trace_s", "s"),
    ("gpu.jit.memo_hit_ratio", "ratio"),
    ("adios.open.s", "s"),
    ("adios.put.calls", "count"),
    ("adios.put.bytes", "B"),
    ("adios.put.s", "s"),
    ("adios.end_step.s", "s"),
    ("adios.close.s", "s"),
    ("analysis.s", "s"),
    ("adios.fsmodel.calls", "count"),
    ("adios.fsmodel.s", "s"),
    ("mpi.netmodel.s", "s"),
    ("sched.epochs", "count"),
    ("sched.events", "count"),
    ("sched.epoch_s", "s"),
    ("core.virtual.self_s", "s"),
    ("observe.spans", "count"),
    ("observe.emit_s", "s"),
    ("observe.sink_s", "s"),
    ("observe.bytes_written", "B"),
    ("observe.shards", "count"),
    ("serve.requests", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.execute_s", "s"),
    ("serve.render_s", "s"),
    ("serve.store.s", "s"),
    ("serve.store.get_p50_us", "us"),
    ("serve.hit_p50_us", "us"),
    ("unattributed_s", "s"),
    ("traced.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: process-wide layer counters summed over every lane
COUNTERS = (
    "core.step.calls", "core.exchange.calls", "mpi.send.calls",
    "mpi.send.bytes", "mpi.coll.calls", "gpu.launch.calls",
    "adios.put.calls", "adios.put.bytes", "adios.fsmodel.calls",
    "sched.epochs", "sched.events",
)


def settings_seed(seed: int) -> int:
    return SEED_POOL[seed % len(SEED_POOL)]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def plain(obj):
    """``obj`` with NumPy scalars turned into JSON numbers."""
    return json.loads(json.dumps(obj, default=lambda value: value.item()))


def tree_digest(path: Path) -> str:
    """sha256 over the relative name and bytes of every file under ``path``."""
    digest = hashlib.sha256()
    for file in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def fields_digest(dataset) -> str:
    """sha256 of every output step's U and V arrays as read back."""
    import numpy as np
    from repro.analysis.reader import GrayScottDataset

    ds = GrayScottDataset(dataset)
    try:
        digest = hashlib.sha256()
        for step in ds.steps:
            for name in ds.FIELDS:
                digest.update(np.ascontiguousarray(ds.field(name, step=step)))
    finally:
        ds.close()
    return digest.hexdigest()


class Workload:
    """One workload: prepare inputs, run the command, report and check."""

    name = ""
    #: percentile of the op latencies reported as ``op_tail_ms``
    tail = 95
    #: worker-thread lanes of the per-lane views (primary first)
    lanes: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool, workdir: Path,
                 slow_checks: bool = True):
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        #: run checks that cost more than the command itself
        self.slow_checks = slow_checks
        self.settings_seed = settings_seed(seed)
        #: monotonic time the first job could start (None: before the command)
        self.ready: float | None = None

    @property
    def ref_key(self) -> str:
        return self.name + ("@tiny" if self.tiny else "")

    def settings(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Import the program and write the inputs (part of set-up)."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def probe(self) -> None:
        """Install the passive hooks the end-to-end metrics need."""

    def command(self) -> None:
        raise NotImplementedError

    def facts(self, rec, wall: float) -> dict:
        """Op latencies, throughput, counts and the outputs to check."""
        raise NotImplementedError

    def check(self, facts: dict, ref: dict) -> list[str]:
        raise NotImplementedError

    def layer_values(self, facts: dict, rec) -> dict:
        """Per-layer metrics this workload measures beyond the wrappers."""
        return {}


class CliWorkload(Workload):
    """A ``grayscott run`` command invoked in-process through ``cli.main``."""

    def prepare(self) -> None:
        super().prepare()
        import repro.cli  # noqa: F401 - the command's own import cost
        from repro.core import execute

        self.settings_path = self.workdir / "settings.json"
        self.settings_path.write_text(json.dumps(self.settings()))
        self.results = []
        original = execute.execute_job

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        execute.execute_job = capture

    def argv(self) -> list[str]:
        return ["run", str(self.settings_path)]

    def command(self) -> None:
        from repro import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.exit_code = cli.main(self.argv())


class Workflow2Rank(CliWorkload):
    name = "workflow-2rank"
    tail = 90
    lanes = ("rank-0", "rank-1")

    def settings(self) -> dict:
        size = dict(L=16, steps=20, plotgap=10) if self.tiny else \
            dict(L=64, steps=100, plotgap=20)
        return {**GS_DEMO, **size, "ranks": 2, "seed": self.settings_seed,
                "output": str(self.workdir / "gs.bp")}

    def facts(self, rec, wall: float) -> dict:
        steps = rec.samples("core.step", "rank-0")
        report = self.results[0].report if self.results else None
        output = Path(self.settings()["output"])
        ok = self.exit_code == 0 and report is not None
        return {
            "ops_ms": [s * 1e3 for s in steps],
            "ops_per_s": len(steps) / sum(steps) if steps else 0.0,
            "attempted": 1,
            "failed": 0 if ok else 1,
            "exit_code": self.exit_code,
            "steps_run": report.steps_run if report else None,
            "analysis": plain(report.analysis) if report else None,
            "fields_sha256": fields_digest(output) if ok else None,
            "determinism": tree_digest(output) if ok else None,
        }

    def check(self, facts: dict, ref: dict) -> list[str]:
        problems = []
        if facts["exit_code"] != 0:
            problems.append(f"grayscott run exited {facts['exit_code']}")
        if facts["steps_run"] != self.settings()["steps"]:
            problems.append(f"ran {facts['steps_run']} steps")
        if facts["analysis"] != ref["analysis"]:
            problems.append(
                f"analysis {facts['analysis']} != reference {ref['analysis']}")
        if facts["fields_sha256"] != ref["fields_sha256"]:
            problems.append("U/V fields differ from the serial reference")
        return problems


class Virtual256k(CliWorkload):
    name = "virtual-256k"
    tail = 90
    ranks, tiny_ranks = 262144, 512

    def settings(self) -> dict:
        return {**GS_DEMO, "seed": self.settings_seed,
                "output": str(self.workdir / "virtual.bp")}

    @property
    def nranks(self) -> int:
        return self.tiny_ranks if self.tiny else self.ranks

    def argv(self) -> list[str]:
        return super().argv() + ["--virtual-ranks", str(self.nranks),
                                 "--overlap"]

    def probe(self) -> None:
        from repro.core.virtual import VirtualWorkflow
        from repro.sched import vector

        self.marks: list[float] = []
        run, simulate_epoch = VirtualWorkflow.run, vector.simulate_epoch

        def run_marked(*args, **kwargs):
            self.marks.append(time.perf_counter())
            return run(*args, **kwargs)

        def epoch_marked(*args, **kwargs):
            result = simulate_epoch(*args, **kwargs)
            self.marks.append(time.perf_counter())
            return result

        VirtualWorkflow.run = run_marked
        vector.simulate_epoch = epoch_marked

    def facts(self, rec, wall: float) -> dict:
        epochs = [b - a for a, b in zip(self.marks, self.marks[1:])]
        result = self.results[0].virtual if self.results else None
        ok = self.exit_code == 0 and result is not None
        outcome = {
            "elapsed_seconds": result.elapsed_seconds,
            "checksum": float(result.results[0]),
            "events_processed": int(result.events_processed),
        } if ok else None
        return {
            "ops_ms": [e * 1e3 for e in epochs],
            "ops_per_s": self.nranks * GS_DEMO["steps"] / wall,
            "attempted": 1,
            "failed": 0 if ok else 1,
            "exit_code": self.exit_code,
            "outcome": outcome,
        }

    def check(self, facts: dict, ref: dict) -> list[str]:
        problems = []
        if facts["exit_code"] != 0:
            problems.append(f"grayscott run exited {facts['exit_code']}")
        outcome = facts["outcome"] or {}
        for key in ("elapsed_seconds", "checksum", "events_processed"):
            if outcome.get(key) != ref[key]:
                problems.append(
                    f"{key} {outcome.get(key)!r} != reference {ref[key]!r}")
        return problems


class VirtualTraced(Virtual256k):
    name = "virtual-traced"
    ranks, tiny_ranks = 512, 64

    @property
    def trace_dir(self) -> Path:
        return self.workdir / "trace"

    def argv(self) -> list[str]:
        return super().argv() + ["--trace-out", f"{self.trace_dir}/"]

    def facts(self, rec, wall: float) -> dict:
        from repro.observe.export import validate_chrome_trace
        from repro.observe.stream import load_manifest

        facts = super().facts(rec, wall)
        if facts["exit_code"] == 0:
            manifest = load_manifest(self.trace_dir)
            files = [p for p in self.trace_dir.iterdir() if p.is_file()]
            facts.update(
                spans=int(manifest["spans"]),
                shards=len(manifest["shards"]),
                bytes_written=sum(p.stat().st_size for p in files),
            )
            if self.slow_checks:
                # merging and schema-checking every span takes longer
                # than the run, so only the first iteration does it
                facts["trace_problems"] = validate_chrome_trace(
                    self.trace_dir)[:5]
        return facts

    def check(self, facts: dict, ref: dict) -> list[str]:
        problems = super().check(facts, ref)
        if facts.get("spans") != ref["spans"]:
            problems.append(
                f"{facts.get('spans')} spans != reference {ref['spans']}")
        problems += [f"trace: {p}" for p in facts.get("trace_problems", [])]
        return problems

    def layer_values(self, facts: dict, rec) -> dict:
        return {
            "observe.spans": facts.get("spans", 0),
            "observe.shards": facts.get("shards", 0),
            "observe.bytes_written": facts.get("bytes_written", 0),
        }


class ServeMixed(Workload):
    """Closed loop: 2 clients x 50 requests, 75% hot key, 2 thread workers."""

    name = "serve-mixed"
    tail = 85
    lanes = ("serve-worker_0", "serve-worker_1")
    clients, workers, hit_fraction = 2, 2, 0.75

    @property
    def requests(self) -> int:
        return 8 if self.tiny else 50

    def settings(self) -> dict:
        size = dict(L=16, steps=10, plotgap=5) if self.tiny else \
            dict(L=32, steps=40, plotgap=10)
        return {**GS_DEMO, **size, "ranks": 0, "seed": self.settings_seed,
                "output": "serve.bp"}

    def prepare(self) -> None:
        super().prepare()
        from repro.core.settings import GrayScottSettings
        from repro.serve import loadgen  # noqa: F401

        self.base = GrayScottSettings(**self.settings())

    def probe(self) -> None:
        from repro.serve.service import SimService

        self.records = []
        start, run = SimService.start, SimService.run
        workload = self

        async def start_marked(self):
            service = await start(self)
            workload.ready = time.monotonic()
            return service

        async def run_recorded(self, spec, *, wait=True):
            record = await run(self, spec, wait=wait)
            workload.records.append(record)
            return record

        SimService.start = start_marked
        SimService.run = run_recorded

    def command(self) -> None:
        from repro.serve.loadgen import run_load

        self.report, self.stats = run_load(
            self.base, clients=self.clients, requests=self.requests,
            hit_fraction=self.hit_fraction, workers=self.workers,
            backend="thread",
            workdir=str(self.workdir / "jobs"),
        )

    def facts(self, rec, wall: float) -> dict:
        from repro.core.execute import JobSpec

        report = self.report
        cold: dict[str, str] = {}
        for record in self.records:
            if not record.cached and not record.coalesced:
                cold[record.key] = record.rendered
        differing = sum(
            1 for r in self.records
            if r.cached and cold.get(r.key) != r.rendered
        )
        hot_key = JobSpec(settings=self.base).canonical_key()
        hot = next((r for r in self.records if r.key == hot_key), None)
        waits = [r.started_at - r.submitted_at for r in self.records
                 if r.started_at is not None]
        return {
            "ops_ms": [s * 1e3 for s in report.miss_latencies],
            "ops_per_s": report.throughput,
            "attempted": self.clients * self.requests,
            "failed": report.failed + report.rejected + differing,
            "completed": report.completed,
            "differing_hits": differing,
            "hot_analysis": plain(hot.result.report.analysis) if hot else None,
            "requests": len(self.records),
            "hit_ratio": report.cache_hits / max(1, len(self.records)),
            "coalesced": report.coalesced,
            "rejected": report.rejected,
            "queue_wait_p50_ms": percentile(waits, 50) * 1e3,
            "hit_p50_us": percentile(report.hit_latencies, 50) * 1e6,
        }

    def check(self, facts: dict, ref: dict) -> list[str]:
        problems = []
        expected = self.clients * self.requests
        if facts["completed"] != expected:
            problems.append(f"{facts['completed']} of {expected} completed")
        if facts["differing_hits"]:
            problems.append(
                f"{facts['differing_hits']} cache hits differ from the cold run")
        if facts["hot_analysis"] != ref["analysis"]:
            problems.append(f"hot-key analysis {facts['hot_analysis']} "
                            f"!= reference {ref['analysis']}")
        return problems

    def layer_values(self, facts: dict, rec) -> dict:
        gets = rec.samples("serve.store.get", "MainThread")
        return {
            "serve.requests": facts["requests"],
            "serve.hit_ratio": facts["hit_ratio"],
            "serve.coalesced": facts["coalesced"],
            "serve.rejected": facts["rejected"],
            "serve.queue_wait_p50_ms": facts["queue_wait_p50_ms"],
            "serve.store.get_p50_us": percentile(gets, 50) * 1e6,
            "serve.hit_p50_us": facts["hit_p50_us"],
        }


WORKLOADS = {
    cls.name: cls
    for cls in (Workflow2Rank, Virtual256k, VirtualTraced, ServeMixed)
}
