"""repro.ir: the shared stencil IR + analysis/rewrite pass pipeline.

Promotes the tracing JIT's :class:`~repro.gpu.jit.KernelTrace` to an
SSA IR (:mod:`repro.ir.core`) shared by the kernel lint (analyses in
:mod:`repro.ir.analysis` back the KRN-* rules) and the predictive
performance models (rewrites in :mod:`repro.ir.passes` produce the
post-optimization IR that :mod:`repro.ir.perfmodel` costs), and
:mod:`repro.ir.lower` emits the C function every kernel launch runs.
See ``docs/IR.md`` for the grammar, passes, and lowering.
"""

from repro.ir.analysis import (
    AnalysisContext,
    cross_dependences,
    cse_candidates,
    halo_analysis,
    may_alias,
    race_analysis,
    reaching_definitions,
    redundant_loads,
    stride_analysis,
)
from repro.ir.build import gray_scott_func, laplacian_func, workflow_module
from repro.ir.core import (
    ArithOp,
    LoadOp,
    Module,
    RandOp,
    StencilFunc,
    StoreOp,
    from_trace,
)
from repro.ir.passes import (
    DEFAULT_PIPELINE,
    PassManager,
    PipelineReport,
    parse_pipeline,
)
from repro.ir.perfmodel import counterfactual, predict_module, simulate_module

__all__ = [
    "AnalysisContext",
    "ArithOp",
    "DEFAULT_PIPELINE",
    "LoadOp",
    "Module",
    "PassManager",
    "PipelineReport",
    "RandOp",
    "StencilFunc",
    "StoreOp",
    "counterfactual",
    "cross_dependences",
    "cse_candidates",
    "from_trace",
    "gray_scott_func",
    "halo_analysis",
    "laplacian_func",
    "may_alias",
    "parse_pipeline",
    "predict_module",
    "race_analysis",
    "reaching_definitions",
    "redundant_loads",
    "simulate_module",
    "stride_analysis",
    "workflow_module",
]
