"""Cache-simulator oracle: the per-access LRU loop, forced.

:class:`repro.gpu.cache.TraceCacheSim` replays sweeps on its vector
engine and falls back to a per-access loop when the geometry is outside
the engine's envelope. :func:`scalar_cache_sim` builds a simulator whose
vector engine always declines, so every sweep takes that fallback
through the same dispatch production uses.
"""

from __future__ import annotations

from repro.gpu.cache import TraceCacheSim, _VectorSweepUnsupported


def _decline(*args, **kwargs):
    raise _VectorSweepUnsupported


def scalar_cache_sim(capacity_bytes: int) -> TraceCacheSim:
    """A :class:`TraceCacheSim` that replays every sweep per access."""
    sim = TraceCacheSim(capacity_bytes)
    sim._sweep_vector = _decline
    return sim
