"""Counter-based device RNG.

The paper's kernel draws ``rand(Uniform(-1, 1))`` *inside* the GPU
kernel — this is exactly the feature that forces AMDGPU.jl to allocate
LDS and scratch (Table 3's ``lds``/``scr`` rows) and part of why the
application kernel is slower than the no-random variant (Table 2).

A stateful RNG is not reproducible across decompositions or between
the scalar interpreter and the lowered kernel, so we use a
counter-based generator instead (the same idea as Philox): the sample
at (seed, step, i, j, k) is a pure hash of its coordinates. The scalar
form :func:`counter_uniform` and the in-place whole-array form
:func:`uniform_into` (which the lowered kernel calls) produce
bitwise-identical values.

During JIT tracing the index arguments are symbolic; the tracer
intercepts the call, records a ``rand`` op for the codegen cost model,
and returns a concrete sample so tracing can proceed.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
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


def axis_keys(start: int, n: int, axis: int, ndim: int) -> np.ndarray:
    """``start, start + 1, ...`` as uint64 keys laid along ``axis``."""
    keys = np.arange(n, dtype=np.uint64) + np.uint64(int(start) & _U64_MASK)
    return keys.reshape([n if a == axis else 1 for a in range(ndim)])


def uniform_into(keys, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``counter_uniform(*keys)`` broadcast over ``out``, written in place.

    Each key is an int or a uint64 array broadcastable to ``out.shape``
    (see :func:`axis_keys`). ``out`` and ``tmp`` are float64 arrays of
    one shape; ``tmp`` is clobbered. The full-size hash rounds run in
    ``tmp``'s memory viewed as uint64, so no field-sized temporary is
    allocated; partial prefixes (fewer axes) are small.
    """
    h = 0
    full = tmp.view(np.uint64)
    scratch = out.view(np.uint64)
    for key in keys:
        if isinstance(h, int) and not isinstance(key, np.ndarray):
            h = _splitmix64_int(h ^ (int(key) & _U64_MASK))
            continue
        lhs = np.uint64(h) if isinstance(h, int) else h
        rhs = key if isinstance(key, np.ndarray) else np.uint64(int(key) & _U64_MASK)
        if np.broadcast_shapes(np.shape(lhs), rhs.shape) == full.shape:
            np.bitwise_xor(lhs, rhs, out=full)
            h = _splitmix64_inplace(full, scratch)
        else:
            z = np.bitwise_xor(lhs, rhs)
            h = _splitmix64_inplace(z, np.empty_like(z))
    if h is not full:
        full[...] = h
    # 53 random mantissa bits -> [0, 1) -> [-1, 1): the scalar form's
    # ``* 2**-53 * 2.0`` is one exact power-of-two scale
    np.right_shift(full, np.uint64(11), out=full)
    np.multiply(full.view(np.int64), 2.0**-52, out=out)  # < 2**53: exact
    np.subtract(out, 1.0, out=out)
    return out


def _splitmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One splitmix64 round over a uint64 array, overwriting it."""
    np.add(z, _GOLDEN, out=z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if mix is not None:
            np.multiply(z, mix, out=z)
    return z
