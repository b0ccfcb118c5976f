"""A functional + performance simulator of Frontier's MI250x GCDs.

The paper's GPU results (Tables 2-3, Figures 5 and 7) are *memory
traffic* results: the Gray-Scott stencil is memory-bound, so every
reported number derives from bytes-moved divided by kernel time. This
package therefore pairs

- a **functional** layer that really executes kernels (so the solver
  is correct): :class:`~repro.gpu.memory.DeviceArray` with Julia's
  column-major layout, :class:`~repro.gpu.kernel.Kernel` objects with
  workgroup/workitem launch semantics, whose scalar body runs lowered to
  C and compiled at its first launch (:mod:`repro.ir.lower`); a launch
  that cannot be lowered is an error, and
- a **performance** layer that models what Frontier measured: a tracing
  JIT (:mod:`repro.gpu.jit`) that lowers the scalar kernel body to an
  LLVM-like IR and recovers the stencil access pattern, a TCC (L2)
  working-set cache model (:mod:`repro.gpu.cache`), per-backend codegen
  profiles for HIP vs. Julia/AMDGPU.jl (:mod:`repro.gpu.backends`), a
  roofline timing model (:mod:`repro.gpu.perf`), and rocprof-style
  views of the device's traced spans (:mod:`repro.gpu.rocprof`).

Substitution note (see DESIGN.md): we do not have MI250x hardware; the
performance layer is calibrated against the paper's own measurements
and the structural models (working sets, rooflines) are validated
against a trace-driven cache simulator at sizes where they can be run
exactly.
"""

from repro.gpu.memory import Device, DeviceArray
from repro.gpu.kernel import Kernel, KernelContext, LaunchConfig
from repro.gpu.backends import BackendProfile, HIP_BACKEND, JULIA_BACKEND, get_backend
from repro.gpu.jit import (
    JitCompiler,
    CompiledKernel,
    KernelTrace,
    TraceMemo,
    memoized_trace,
    trace_memo,
)
from repro.gpu.jitcache import JitDiskCache
from repro.gpu.cache import StencilTrafficModel, TraceCacheSim, TrafficEstimate
from repro.gpu.perf import RooflineModel, LaunchCost

__all__ = [
    "Device",
    "DeviceArray",
    "Kernel",
    "KernelContext",
    "LaunchConfig",
    "BackendProfile",
    "HIP_BACKEND",
    "JULIA_BACKEND",
    "get_backend",
    "JitCompiler",
    "CompiledKernel",
    "KernelTrace",
    "TraceMemo",
    "memoized_trace",
    "trace_memo",
    "JitDiskCache",
    "StencilTrafficModel",
    "TraceCacheSim",
    "TrafficEstimate",
    "RooflineModel",
    "LaunchCost",
]
