"""Figure 5: rocprof trace of GPU kernels and memory transfers.

Runs a few steps of the simulated-GPU Gray-Scott solver under a tracer
and renders the device's spans as a timeline: the JIT compilation burst,
then alternating kernel dispatches and the D2H/H2D face-staging copies
around each host-memory MPI exchange — the pattern the paper's Figure 5
shows from rocprof.

:func:`run_virtual` produces the same trace shape from the
discrete-event engine instead: a small virtual-SPMD job
(:class:`repro.core.virtual.VirtualWorkflow`) whose modeled kernel,
halo, and write events land in an :mod:`repro.observe` tracer and
render as a virtual-time timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.gpu import rocprof
from repro.observe import trace as observe


@dataclass(frozen=True)
class Fig5Result:
    spans: tuple  # the traced run's spans
    kernel_count: int
    copy_count: int
    compile_count: int


def run(*, L: int = 24, steps: int = 4, backend: str = "julia") -> Fig5Result:
    settings = GrayScottSettings(L=L, steps=steps, backend=backend, noise=0.05)
    with observe.session() as tracer:
        Simulation(settings).run(steps)
    kinds = [kind for kind, _ in rocprof.device_events(tracer.spans)]
    return Fig5Result(
        spans=tuple(tracer.spans),
        kernel_count=kinds.count("kernel"),
        copy_count=kinds.count("copy"),
        compile_count=kinds.count("compile"),
    )


def render(result: Fig5Result) -> str:
    header = (
        "Figure 5: simulated rocprof trace "
        f"({result.kernel_count} kernels, {result.copy_count} copies, "
        f"{result.compile_count} JIT compilations)"
    )
    from repro.observe.export import ascii_timeline

    return header + "\n" + ascii_timeline(rocprof.timeline_rows(result.spans))


def shape_checks(result: Fig5Result) -> dict[str, bool]:
    return {
        "one_jit_compile_total": result.compile_count == 1,
        "one_kernel_per_step": result.kernel_count >= 1,
        "copies_bracket_each_exchange": result.copy_count >= 2 * result.kernel_count,
    }


# ---------------------------------------------------------------------------
# virtual-time variant (discrete-event engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig5VirtualResult:
    """Engine-driven Figure 5: the virtual engine's modeled spans."""

    tracer: object  # repro.observe.trace.Tracer
    nranks: int
    kernel_spans: int
    halo_spans: int
    write_spans: int
    elapsed_seconds: float


def run_virtual(
    *, nranks: int = 8, L: int = 64, steps: int = 4, overlap: bool = False,
    backend: str = "julia",
) -> Fig5VirtualResult:
    """A small virtual-SPMD run traced through :mod:`repro.observe`."""
    from repro.core.virtual import VirtualWorkflow
    from repro.observe.trace import Tracer

    tracer = Tracer()
    settings = GrayScottSettings(
        L=L, steps=steps, plotgap=max(steps // 2, 1), backend=backend
    )
    result = VirtualWorkflow(
        settings, nranks=nranks, overlap=overlap, tracer=tracer
    ).run()
    names = [s.name for s in tracer.spans]
    return Fig5VirtualResult(
        tracer=tracer,
        nranks=nranks,
        kernel_spans=sum(1 for n in names if n.startswith("gray_scott")),
        halo_spans=names.count("halo"),
        write_spans=names.count("bp5.write"),
        elapsed_seconds=result.elapsed_seconds,
    )


def render_virtual(result: Fig5VirtualResult, *, width: int = 72) -> str:
    from repro.observe.export import tracer_timeline

    header = (
        "Figure 5 (virtual): modeled timeline, "
        f"{result.nranks} ranks ({result.kernel_spans} kernels, "
        f"{result.halo_spans} halos, {result.write_spans} writes, "
        f"{result.elapsed_seconds:.3f} modeled s)"
    )
    return header + "\n" + tracer_timeline(result.tracer, width=width)


def virtual_shape_checks(result: Fig5VirtualResult) -> dict[str, bool]:
    steps_per_rank = result.kernel_spans // result.nranks
    return {
        "kernels_on_every_rank": result.kernel_spans >= result.nranks,
        "halo_per_kernel": result.halo_spans == result.kernel_spans,
        "writes_are_node_aggregated": 0 < result.write_spans <= result.kernel_spans,
        "steps_consistent": steps_per_rank * result.nranks == result.kernel_spans,
    }
