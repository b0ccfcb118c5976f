"""Engine layer: canonical job specs and presentation-free execution.

This module is the execution half of the engine/presentation split:

- :class:`JobSpec` — *what to run*: a settings object plus a run mode
  (real workflow, simulated-MPI SPMD via ``settings.ranks``, or the
  event-driven virtual SPMD mode) with a **canonical content hash**.
  Two specs hash identically exactly when they describe the same run,
  regardless of settings-file field order or serialization round
  trips — the hash is the cache key of :mod:`repro.serve`.
- :class:`RunResult` — *what happened*: the workflow report or virtual
  result as plain picklable data, with no rendering attached.
- :func:`execute_job` — the one execution path. The CLI, campaigns,
  and the service all call it; tables, provenance files, and trace
  export live in :mod:`repro.core.present` and the callers.

Because a :class:`RunResult` crosses process boundaries unchanged (it
rides :mod:`repro.par`'s shm/pickle transport), a service worker pool
can compute it remotely and the front end can present it — or store it
— without ever touching the solver.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.core.settings import GrayScottSettings
from repro.util.errors import ConfigError

#: run modes understood by :func:`execute_job`
MODES = ("workflow", "virtual")


@dataclass(frozen=True)
class JobSpec:
    """One executable run request with a canonical identity.

    ``mode="workflow"`` executes the real solver (serial, or simulated
    MPI when ``settings.ranks > 1``); ``mode="virtual"`` runs
    ``virtual_ranks`` modeled ranks on the discrete-event engine.
    """

    settings: GrayScottSettings
    mode: str = "workflow"
    #: run the analysis stage after the solve (workflow mode)
    analyze: bool = True
    #: resume from ``settings.checkpoint`` (workflow mode)
    resume: bool = False
    #: modeled ranks (virtual mode; >= 1)
    virtual_ranks: int = 0
    #: virtual mode: nonblocking halo + BP5 async drain
    overlap: bool = False
    #: virtual mode: ranks queue on the node's 4 shared NICs
    nic_contention: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(
                f"job mode must be one of {'|'.join(MODES)} "
                f"(got {self.mode!r})"
            )
        if self.mode == "virtual" and self.virtual_ranks < 1:
            raise ConfigError(
                "virtual jobs need virtual_ranks >= 1 "
                f"(got {self.virtual_ranks})"
            )
        if self.mode == "workflow" and self.virtual_ranks:
            raise ConfigError("virtual_ranks requires mode='virtual'")

    # -- canonical identity -------------------------------------------------
    def canonical_json(self) -> str:
        """Canonical serialization of the whole request (sorted, compact)."""
        return json.dumps(
            {
                "settings": json.loads(self.settings.canonical_json()),
                "mode": self.mode,
                "analyze": self.analyze,
                "resume": self.resume,
                "virtual_ranks": self.virtual_ranks,
                "overlap": self.overlap,
                "nic_contention": self.nic_contention,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def canonical_key(self) -> str:
        """Hex sha256 of :meth:`canonical_json` — the service cache key."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def fingerprint(self) -> str:
        """A short display form of :meth:`canonical_key`."""
        return self.canonical_key()[:12]

    def with_output(self, output: str) -> "JobSpec":
        """The same job writing its dataset elsewhere.

        Used by the service to sandbox each distinct job under its own
        path; note the canonical key *changes* (the output path is part
        of the configuration).
        """
        return replace(self, settings=self.settings.with_overrides(output=output))


@dataclass
class RunResult:
    """Outcome of one executed job — plain data, no presentation.

    Exactly one of ``report`` (workflow mode) / ``virtual`` (virtual
    mode) is set. Everything here pickles, so results cross worker
    process boundaries intact.
    """

    spec: JobSpec
    report: object | None = None
    virtual: object | None = None
    #: wall seconds of the execution as observed by the engine layer
    wall_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return self.spec.mode

    @property
    def key(self) -> str:
        return self.spec.canonical_key()

    def render(self) -> str:
        from repro.core import present

        return present.render_result(self)

    def provenance(self) -> dict:
        from repro.core import present

        return present.result_provenance(self)


def execute_job(
    spec: JobSpec,
    *,
    jobs: int = 1,
    tracer=None,
    profiler=None,
) -> RunResult:
    """Execute one :class:`JobSpec`; returns the unified result.

    ``jobs`` shards virtual-mode ranks over worker processes (results
    are jobs-invariant, so it is *not* part of the canonical key; see
    :meth:`repro.core.virtual.VirtualWorkflow.run`).
    ``tracer``/``profiler`` feed virtual mode's engine; workflow mode
    picks up the ambient :func:`repro.observe.trace.active` tracer.
    """
    from repro.util.timers import WallTimer

    with WallTimer() as timer:
        if spec.mode == "virtual":
            result = _execute_virtual(spec, jobs=jobs, tracer=tracer,
                                      profiler=profiler)
        else:
            result = _execute_workflow(spec)
    result.wall_seconds = timer.elapsed
    return result


def _execute_virtual(spec: JobSpec, *, jobs, tracer, profiler) -> RunResult:
    from repro.core.virtual import VirtualWorkflow

    workflow = VirtualWorkflow(
        spec.settings,
        nranks=spec.virtual_ranks,
        overlap=spec.overlap,
        nic_contention=spec.nic_contention,
        tracer=tracer,
        profiler=profiler,
    )
    return RunResult(spec=spec, virtual=workflow.run(jobs=jobs))


def _execute_workflow(spec: JobSpec) -> RunResult:
    from repro.core.workflow import Workflow
    from repro.observe import trace as observe

    settings = spec.settings
    nranks = settings.ranks

    def run_one(comm=None):
        return Workflow(settings, comm).run(
            analyze=spec.analyze, resume=spec.resume
        )

    if nranks > 1:
        from repro.mpi.executor import run_spmd

        # rank 0's report carries the analysis + metrics summary
        report = run_spmd(
            run_one, nranks, collect_stats=observe.active() is not None
        )[0]
    else:
        report = run_one()
    return RunResult(spec=spec, report=report, metrics=dict(report.metrics))
