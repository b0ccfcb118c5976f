"""Whole-array counter RNG: the noise field as NumPy computes it.

:func:`repro.gpu.rand.counter_uniform` is the scalar definition and the
compiled kernels hash inline. These are the in-place whole-array form the
NumPy oracles (:mod:`tests.oracles.stencil`, :mod:`tests.oracles.lower`)
use; all three are bitwise identical.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.rand import _U64_MASK, _splitmix64_int

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


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
