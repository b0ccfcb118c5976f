"""Deterministic random-number streams.

Reproducibility rule for the whole package: *no module touches global
NumPy random state*. Every consumer derives an independent
``numpy.random.Generator`` from a root seed plus a structured key
(purpose string, rank, step, ...) via ``numpy``'s ``SeedSequence``
spawn-key mechanism. Two Gray-Scott runs with the same root seed and
decomposition produce bitwise-identical noise fields regardless of the
number of ranks executing them (see ``RngStream.for_cells``).
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


# numpy.random.SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _powers(mult: int) -> np.ndarray:
    return np.array(
        [pow(mult, k, 1 << 32) for k in range(_POOL_SIZE + 1)], dtype=np.uint32
    )


_POWERS_A = _powers(_MULT_A)
# generate_state's hash constants: they start over from _INIT_B
_STATE_CONSTS = np.uint32(_INIT_B) * _powers(_MULT_B)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` for each pool word, one row per word.

    hashmix xors with its hash constant, multiplies the constant by the
    multiplier, then multiplies by the new constant. The constants do
    not depend on the data, so the pool-size calls starting from
    constant ``c`` use ``consts = c * mult**[0..pool size]`` at once.
    """
    value = (words ^ consts[:-1, None]) * consts[1:, None]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _key_int(part) -> int:
    """An int key component as a Python int, checked to fit two words."""
    value = int(part)
    if value < 0:
        raise ValueError(f"negative key component: {part}")
    if value >> 64:
        raise ValueError(f"key component does not fit in 64 bits: {part}")
    return value


def _key_to_ints(key: tuple) -> tuple[int, ...]:
    """Map a mixed key of ints/strings to a tuple of uint32 words."""
    words: list[int] = []
    for part in key:
        if isinstance(part, (int, np.integer)):
            value = _key_int(part)
            words.append(value & _MASK32)
            words.append(value >> 32)
        elif isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")) & _MASK32)
        else:
            raise TypeError(f"rng key components must be int or str, got {part!r}")
    return tuple(words)


def _tail_words(tails: Sequence[int] | Sequence[str]) -> list[np.ndarray]:
    """The key words of every tail, as one uint32 column per word.

    Tails must be all int (two words each) or all str (one word each),
    so that every tail has the same width.
    """
    n = len(tails)
    if all(isinstance(t, str) for t in tails):
        crcs = (zlib.crc32(t.encode("utf-8")) for t in tails)
        return [np.fromiter(crcs, dtype=np.uint32, count=n)]
    if all(isinstance(t, (int, np.integer)) for t in tails):
        values = np.fromiter(map(_key_int, tails), dtype=np.uint64, count=n)
        return [
            (values & np.uint64(_MASK32)).astype(np.uint32),
            (values >> np.uint64(32)).astype(np.uint32),
        ]
    raise TypeError("rng key tails must be all int or all str")


def _philox_keys(
    root_seed: int, key: tuple, tails: Sequence[int] | Sequence[str]
) -> np.ndarray:
    """The Philox key of ``seed_for(root_seed, *key, tail)`` per tail.

    Row ``i`` equals ``seed_for(root_seed, *key, tails[i])
    .generate_state(2, np.uint64)``, the key ``Philox(seq)`` starts
    from. SeedSequence spends pool-size hashmix calls per entropy word,
    and words past the pool mix in order, so the pool of the shared
    prefix ``seed_for(root_seed, *key)`` is mixed once and only the tail
    words need array arithmetic, with the hash constant the prefix left.
    """
    prefix = seed_for(root_seed, *key)
    # the root seed's words, zero-padded to the pool size (numpy pads
    # whenever there is a spawn key), then the key's words
    root_words = max(-(-int(root_seed).bit_length() // 32), _POOL_SIZE)
    calls = _POOL_SIZE * (root_words + len(prefix.spawn_key))
    hash_const = np.uint32(_INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32)
    pool = prefix.pool[:, None]
    for column in _tail_words(tails):
        consts = hash_const * _POWERS_A
        pool = _mix(pool, _hashmix(column, consts))
        hash_const = consts[-1]
    # generate_state(2, np.uint64): four words, paired little-endian
    state = _hashmix(pool, _STATE_CONSTS).astype(np.uint64)
    keys = np.empty((len(tails), 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def seed_for(root_seed: int, *key: int | str) -> np.random.SeedSequence:
    """Derive a ``SeedSequence`` for a structured key under a root seed."""
    return np.random.SeedSequence(root_seed, spawn_key=_key_to_ints(key))


def task_stream(root_seed: int, task_index: int, *key: int | str) -> "RngStream":
    """A spawn-safe per-task stream for process-parallel fan-out.

    Keyed by the **task index**, never the worker id, so a sweep run
    under ``repro.par.run_tasks`` draws identical numbers at ``jobs=1``
    and ``jobs=N`` for any N: which worker executes a task carries no
    entropy. Task functions that need randomness should derive every
    generator from this stream (or any other pure function of the root
    seed, as the model layers already do) rather than from process-local
    state.
    """
    if task_index < 0:
        raise ValueError(f"task_index must be >= 0, got {task_index}")
    return RngStream(root_seed, ("par.task", task_index) + tuple(key))


@dataclass(frozen=True)
class RngStream:
    """A named, hierarchical random stream.

    ``RngStream(seed, "noise")`` is the noise stream of a run;
    ``stream.child(rank)`` or ``stream.generator(step=3)`` derive
    independent substreams. All derivations are pure functions of
    (root_seed, key) — no hidden state.
    """

    root_seed: int
    key: tuple = ()

    def child(self, *key: int | str) -> "RngStream":
        """A substream extending this stream's key."""
        return RngStream(self.root_seed, self.key + tuple(key))

    def generator(self, *key: int | str) -> np.random.Generator:
        """A ``Generator`` for this stream (optionally with extra key)."""
        seq = seed_for(self.root_seed, *(self.key + tuple(key)))
        return np.random.Generator(np.random.Philox(seq))

    def uniform_field(
        self,
        shape: tuple[int, ...],
        *key: int | str,
        low: float = -1.0,
        high: float = 1.0,
    ) -> np.ndarray:
        """A uniform random field, keyed so it is decomposition-invariant.

        Used for the Gray-Scott noise term ``n * r`` where ``r`` must be
        "a uniformly distributed random number between -1 and 1 for each
        time and spatial coordinate" (paper Section 3.1). Callers pass a
        *global* step key and slice the field per-rank, or key by global
        cell offsets.
        """
        gen = self.generator(*key)
        return gen.uniform(low, high, size=shape)

    def normals(
        self, *key: int | str, tails: Sequence[int] | Sequence[str], scale: float
    ) -> np.ndarray:
        """One normal draw per tail, in a single pass over the tails.

        Element ``i`` equals ``self.generator(*key, tails[i]).normal(0.0,
        scale)`` bit for bit. The Philox keys come from
        :func:`_philox_keys`; one reused ``Philox`` is reset to each key
        with the counter and buffer a fresh one starts with, so no
        per-tail ``SeedSequence`` or generator is built. Tails must be all
        int or all str.
        """
        keys = _philox_keys(self.root_seed, self.key + tuple(key), tails)
        bitgen = np.random.Philox(0)
        state = bitgen.state
        # plain ints: the state setter indexes these element by element,
        # and indexing an array builds a NumPy scalar per element
        fresh = state["state"]
        fresh["counter"] = tuple(int(c) for c in fresh["counter"])
        state["buffer"] = tuple(int(b) for b in state["buffer"])
        draw = np.random.Generator(bitgen).standard_normal

        def normal(philox_key) -> float:
            fresh["key"] = philox_key
            bitgen.state = state
            return draw()

        gauss = np.fromiter(map(normal, keys), dtype=np.float64, count=len(keys))
        # Generator.normal(loc, scale) returns loc + scale * gauss
        return 0.0 + scale * gauss
