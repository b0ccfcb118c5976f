"""Counter-based device RNG.

The paper's kernel draws ``rand(Uniform(-1, 1))`` *inside* the GPU
kernel — this is exactly the feature that forces AMDGPU.jl to allocate
LDS and scratch (Table 3's ``lds``/``scr`` rows) and part of why the
application kernel is slower than the no-random variant (Table 2).

A stateful RNG is not reproducible across decompositions or between
the scalar interpreter and the lowered kernel, so we use a
counter-based generator instead (the same idea as Philox): the sample
at (seed, step, i, j, k) is a pure hash of its coordinates. The scalar
form :func:`counter_uniform` defines it; the compiled kernel
(:mod:`repro.ir.lower`) hashes the same splitmix64 chain inline, bitwise
identically.

During JIT tracing the index arguments are symbolic; the tracer
intercepts the call, records a ``rand`` op for the codegen cost model,
and returns a concrete sample so tracing can proceed.
"""

from __future__ import annotations

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64_int(x: int) -> int:
    """One splitmix64 round on a Python int (no numpy overflow warnings)."""
    x = (x + 0x9E3779B97F4A7C15) & _U64_MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def counter_hash(*keys: int) -> int:
    """Combine integer keys into a 64-bit hash, order-sensitively."""
    h = 0
    for key in keys:
        h = _splitmix64_int(h ^ (int(key) & _U64_MASK))
    return h


def counter_uniform(*keys) -> float:
    """A uniform sample in [-1, 1) keyed purely by its coordinates.

    Accepts traced integers during JIT tracing (see module docstring).
    """
    from repro.gpu.jit import TracedInt, TracedFloat

    traced = [k for k in keys if isinstance(k, TracedInt)]
    if traced:
        tracer = traced[0].tracer
        symbolic = tuple(
            k.expr if isinstance(k, TracedInt) else int(k) for k in keys
        )
        ssa = tracer.record_rand(symbolic)
        concrete = counter_uniform(
            *[k.value if isinstance(k, TracedInt) else int(k) for k in keys]
        )
        return TracedFloat(tracer, concrete, ssa)
    h = counter_hash(*keys)
    # 53 random mantissa bits -> [0, 1), then map to [-1, 1).
    return (h >> 11) * (2.0**-53) * 2.0 - 1.0
