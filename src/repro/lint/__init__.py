"""Cross-layer static analysis (``repro.lint``).

The paper's central methodological move is *static inspection*: it
counts the 14 loads / 2 stores in the Julia kernel's LLVM-IR
(Listing 4) to show the high-level language added no hidden memory
traffic, and its portability hazards — type instability, halo-index
bugs, mismatched nonblocking exchanges — are exactly what Julia's
``@code_warntype``/JET.jl catch before a 512-node run. This package is
that diagnostics layer for the reproduction: three analyzers over the
repo's *plans and traces*, none of which execute the workload.

- :mod:`repro.lint.kernels` — bounds/halo, write-write races,
  coalescing, and type-stability checks over the tracing JIT's
  :class:`~repro.gpu.jit.KernelTrace`;
- :mod:`repro.lint.mpiplan` — deadlock and matching analysis of static
  send/recv plans (:func:`halo_exchange_plan` collects the ghost
  exchange plans the ranks execute, from ``dims``/``periods`` alone);
- :mod:`repro.lint.adiosproto` — symbolic execution of writer scripts
  against the begin_step/put/end_step state machine plus per-step
  selection coverage of the global shape.

Findings share one :class:`Diagnostic` model (rule id, severity,
layer, location, fix hint) collected into a :class:`LintReport`, with
text and SARIF-like JSON reporters and metrics-registry integration.
``grayscott lint <settings.json>`` runs everything end-to-end; rule
documentation lives in ``docs/LINTING.md``.
"""

from repro.lint.adiosproto import (
    WriterOp,
    WriterScript,
    check_writer_script,
    writer_script_for,
)
from repro.lint.diagnostics import (
    RULES,
    Diagnostic,
    LintReport,
    Rule,
    Severity,
    check_rule_ids,
)
from repro.lint.kernels import (
    analyze_ir_func,
    analyze_kernel_trace,
    check_ir_func,
    check_occupancy,
    lint_kernel,
)
from repro.lint.mpiplan import (
    CommPlan,
    PlanOp,
    check_plan,
    halo_exchange_plan,
)
from repro.lint.report import exit_code, render_text, to_sarif
from repro.lint.runner import lint_workflow
from repro.mpi.cart import cart_shift

__all__ = [
    "RULES",
    "CommPlan",
    "Diagnostic",
    "LintReport",
    "PlanOp",
    "Rule",
    "Severity",
    "WriterOp",
    "WriterScript",
    "analyze_ir_func",
    "analyze_kernel_trace",
    "cart_shift",
    "check_ir_func",
    "check_occupancy",
    "check_plan",
    "check_rule_ids",
    "check_writer_script",
    "exit_code",
    "halo_exchange_plan",
    "lint_kernel",
    "lint_workflow",
    "render_text",
    "to_sarif",
    "writer_script_for",
]
