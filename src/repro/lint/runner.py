"""End-to-end lint of a Gray-Scott configuration.

:func:`lint_workflow` is what ``grayscott lint`` runs: from a settings
object alone it lints

- the built-in kernels (application + 1-variable diagnostic), traced
  through the JIT exactly as a run would compile them — including the
  paper's Listing 4 invariant, recorded as facts
  (``kernel:_kernel_gray_scott.unique_loads = 14`` / ``…stores = 2``);
- the Listing 3 ghost-exchange plan of the settings' decomposition
  (from ``ranks``) and periodicity (from ``boundary``);
- the ADIOS writer script of the output phase (one ``U``/``V``/``step``
  put per output step per rank, coverage-checked over the global
  shape).

If an observability tracer is active (:func:`repro.observe.trace.
active`), diagnostic counts land in its metrics registry so lint
results appear alongside traces and run metrics.
"""

from __future__ import annotations

import numpy as np

from repro.lint import diagnostics as D
from repro.lint.adiosproto import check_writer_script, writer_script_for
from repro.lint.diagnostics import LintReport, check_rule_ids
from repro.lint.kernels import check_occupancy, lint_kernel
from repro.lint.mpiplan import check_plan, halo_exchange_plan
from repro.observe import trace as observe

#: per-axis size of the scratch arrays kernels are traced over; any
#: value >= 4 yields the same affine trace (the tracer pins the
#: interior workitem), 12 matches the Listing 4 harness
TRACE_EXTENT = 12


def _builtin_kernel_args(settings):
    """(kernel, args) pairs for the kernels a run would launch."""
    from repro.core.stencil import (
        kernel_args,
        make_gray_scott_kernel,
        make_laplacian_kernel,
    )

    dtype = np.dtype(settings.precision)
    shape = (TRACE_EXTENT,) * 3
    u, v = (np.ones(shape, dtype=dtype, order="F") for _ in range(2))
    u_new, v_new = (np.zeros(shape, dtype=dtype, order="F") for _ in range(2))
    gs_args = kernel_args(
        u, v, u_new, v_new, settings.params(),
        seed=settings.seed, step=0,
    )
    lap_args = (u, u_new, shape, settings.Du, settings.dt)
    return [
        (make_gray_scott_kernel(), gs_args),
        (make_laplacian_kernel(), lap_args),
    ]


def _check_module_passes(settings, passes, report: LintReport) -> None:
    """Optimizer-backed module lint: what would the pass pipeline buy?

    Builds the workflow's stencil-IR module, runs ``passes`` over it,
    and reports missed cross-launch optimizations as informational
    diagnostics: IR-FUSION-MISSED when fusion was legal and removed
    re-loads, IR-CSE when the merged module still held repeated pure
    subexpressions. Facts record the op-count deltas either way.
    """
    from repro.ir.build import workflow_module
    from repro.ir.passes import PassManager, parse_pipeline

    pipeline = parse_pipeline(passes)
    module = workflow_module(settings)
    rewritten, pipe_report = PassManager(pipeline).run(module)
    before, after = module.op_counts(), rewritten.op_counts()
    where = f"module:{module.name}"
    report.record_fact(
        f"{where}.passes", ",".join(p.name for p in pipeline)
    )
    for kind in sorted(before):
        report.record_fact(f"{where}.{kind}_ops", f"{before[kind]} -> {after[kind]}")

    by_pass = {r.pass_name: r for r in pipe_report.reports}
    fuse = by_pass.get("fuse")
    loads_removed = before["load"] - after["load"]
    if fuse is not None and fuse.applied and loads_removed > 0:
        report.add(
            D.IR_FUSION_MISSED, where,
            f"launches {' + '.join(f.name for f in module.funcs)} re-load "
            f"shared inputs; fusing them removes {loads_removed} of "
            f"{before['load']} loads per cell",
            hint="fuse the kernels (or rely on cache residency at small "
                 "shapes); `grayscott ir optimize` quantifies the traffic",
            key=f"fuse:{'+'.join(f.name for f in module.funcs)}",
        )
    arith_removed = before["arith"] - after["arith"]
    if arith_removed > 0:
        report.add(
            D.IR_CSE, where,
            f"{arith_removed} of {before['arith']} arith op(s) per cell "
            f"recompute values the merged module already holds",
            hint="common-subexpression merge across the fused body cuts "
                 "per-cell flops",
            key=f"cse:{arith_removed}/{before['arith']}",
        )


def lint_workflow(settings, *, rules=None, passes=None) -> LintReport:
    """Lint kernels + exchange plan + writer script for one settings.

    ``passes`` (a pass-pipeline spec like ``"fuse,rle,cse"``) addition-
    ally runs the stencil-IR rewrite pipeline over the workflow module
    and reports cross-launch optimization opportunities (IR-FUSION-
    MISSED, IR-CSE) as informational diagnostics.
    """
    report = LintReport()

    for kernel, args in _builtin_kernel_args(settings):
        lint_kernel(kernel, args, ghost=1, report=report)

    if passes is not None:
        _check_module_passes(settings, passes, report)

    if settings.backend != "cpu":
        # a GPU backend was selected: check its codegen's CU occupancy
        check_occupancy(settings.backend, report=report)

    nranks = max(int(settings.ranks), 1)
    if nranks > 1:
        from repro.mpi.cart import dims_create

        dims = dims_create(nranks, 3)
    else:
        dims = (1, 1, 1)
    periodic = settings.boundary == "periodic"
    plan = halo_exchange_plan(dims, periods=(periodic,) * 3)
    check_plan(plan, report=report)

    check_writer_script(writer_script_for(settings), report=report)

    if rules is not None:
        report = report.select_rules(check_rule_ids(rules))

    tracer = observe.active()
    if tracer is not None:
        report.to_metrics(tracer.metrics)
    return report
