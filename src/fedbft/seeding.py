"""numpy's replication seeding, recomputed for a block of replications.

``SeedSequence(key + (r,)).spawn(...)`` followed by ``default_rng`` costs
tens of microseconds per replication.  Its result is a fixed function of
the entropy words: O'Neill's seed_seq hash, as numpy implements it
(``mix_entropy``, then ``generate_state(4, uint64)``), then PCG64's
``srandom``.  ``replication_seeds`` evaluates the hash on uint32 arrays for
many replications at once, and ``pcg64_state`` turns one replication's
words into the ``bit_generator.state`` that numpy would have produced.
"""
from __future__ import annotations

import numpy as np

__all__ = ["replication_seeds", "pcg64_state"]

_HASH_A = (0x43B0D7E5, 0x931E8875)   # mix_entropy: initial constant, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)   # generate_state: initial constant, multiplier
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_CHILDREN_READ = (0, 1)              # spawn indices of arrivals and services


def _seed_words(value) -> list[int]:
    """One key entry as little-endian uint32 words, checked as numpy checks it."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError("seed must be integer")
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """numpy's hashmix on uint32 arrays, carrying its running hash constant."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def replication_seeds(key: tuple, first_rep: int, count: int) -> np.ndarray:
    """(count, 2, 4) uint64 PCG64 seed words of the arrivals and services
    streams that ``sim.RandomStreams.for_replication(key, r)`` builds, for
    r in first_rep .. first_rep + count - 1, computed for all r at once.

    Child i of replication r is seeded from the entropy key + (r,), padded
    with zeros to the pool size, then i (its spawn key); its
    generate_state(4, uint64) is PCG64's (seed, increment), high word first.
    Every r is below 2**32, so it is one entropy word.
    """
    words = [w for v in key for w in _seed_words(v)]
    shape = (count, len(_CHILDREN_READ))
    reps = np.arange(first_rep, first_rep + count).astype(np.uint32)
    entropy = [np.full(shape, w, np.uint32) for w in words]
    entropy.append(np.broadcast_to(reps[:, None], shape))
    entropy += [np.zeros(shape, np.uint32)] * (_POOL_SIZE - len(entropy))
    entropy.append(np.broadcast_to(np.array(_CHILDREN_READ, np.uint32), shape))

    hashmix = _hasher(*_HASH_A)
    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(e))

    hashmix = _hasher(*_HASH_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([out[2 * k] | out[2 * k + 1] << np.uint64(32)
                     for k in range(4)], axis=-1)


def pcg64_state(seed_hi: int, seed_lo: int, inc_hi: int, inc_lo: int) -> dict:
    """The ``bit_generator.state`` PCG64 reaches when seeded with these words."""
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
