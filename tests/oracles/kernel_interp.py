"""The per-workitem kernel interpreter: the launch-semantics oracle.

Production runs a kernel one way, its body lowered to C
(:mod:`repro.ir.lower`). :func:`interpret` is the reference that path is
held against: the scalar body called once per workitem of the launch,
exactly as AMDGPU.jl invokes a kernel. Loads from float16/float32 arrays
arrive as Python floats, so the body computes in float64 and rounds once
at the store, like the lowered path.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.gpu.kernel import KernelContext, LaunchConfig


def interpret(kernel, config: LaunchConfig, raw_args) -> None:
    """Run ``kernel.body`` per workitem of ``config`` over ``raw_args``
    (device arrays unwrapped)."""
    raw_args = [
        _Float64Loads(a) if isinstance(a, np.ndarray) and a.dtype.kind == "f"
        and a.dtype.itemsize < 8 else a
        for a in raw_args
    ]
    for wg in product(*map(range, config.grid)):
        for wi in product(*map(range, config.workgroup)):
            kernel.body(KernelContext(wg, config.workgroup, wi), *raw_args)


class _Float64Loads:
    """A narrow float array whose element loads are Python floats."""

    __slots__ = ("data", "shape")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.shape = data.shape

    def __getitem__(self, index):
        value = self.data[index]
        return float(value) if isinstance(value, np.generic) else value

    def __setitem__(self, index, value) -> None:
        self.data[index] = value
