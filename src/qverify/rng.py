"""Seeding discipline shared by every stochastic routine in the package.

Every stream is the numpy Generator that ``PCG64(SeedSequence(seed, spawn_key=path))``
gives, so results are independent of scheduling order: the stream of sub-task
``(seed, "kmatrix", n, m)`` is the same whenever (or whether) any other sub-task runs.
The package runs SeedSequence's hash itself, as numpy documents it (stable under NEP 19),
and hands the state to PCG64.  ``make_rngs`` hashes a whole batch of indices in one
vectorized pass and yields a fresh Generator per index, valid for as long as it is kept.
"""

from __future__ import annotations

import functools
from itertools import accumulate, repeat
from typing import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Recorded in dataset provenance so files document their own randomness.
GENERATOR_ID = "numpy-pcg64/seedsequence-spawn"

# SeedSequence's hash constants (O'Neill's seed_seq_fe) on uint32 words, pool size 4
MASK32, INIT_A, MULT_A, INIT_B, MULT_B = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _key_word(part: object) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & MASK32
    if isinstance(part, str):  # 32-bit FNV-1a: stable, independent of PYTHONHASHSEED
        return functools.reduce(lambda acc, ch: (acc ^ ch) * 16777619 & MASK32, part.encode("utf-8"), 2166136261)
    raise TypeError(f"unsupported seed material: {part!r}")


@functools.cache
def _hash_constants(init: int, mult: int, n: int) -> tuple[int, ...]:
    return tuple(accumulate(repeat(mult, n), lambda h, m: h * m & MASK32, initial=init))


def _hashmix(value, constants: tuple[int, ...], k: int):  # the k-th hash of one derivation
    value = (value ^ constants[k]) * constants[k + 1] & MASK32
    return value ^ value >> 16


class _Seeded(ISeedSequence):
    """A derived ``generate_state(4, np.uint64)``, handed to PCG64 as its seed sequence."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint64):
        return self.state


def _pcg64_seeds(seed: int, path: tuple, indices: Iterable[int] | None = None) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)``, or its (n, 4) rows for
    the keys ``(*path, i)``: each index masked as a path int (a float or str refused) and hashed in
    uint64 lanes, and each uint64 read as a little-endian pair of hashed uint32 words."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative (got {seed})")
    entropy = [(int(seed) >> s) & MASK32 for s in range(0, max(int(seed).bit_length(), 1), 32)]
    lanes = [] if indices is None else [(np.fromiter(indices, object) & MASK32).astype(np.uint64)]
    spawn_key = [_key_word(p) for p in path] + lanes
    # numpy zero-pads the run entropy to the pool size only under a spawn key
    entropy += [0] * (4 - len(entropy)) * bool(spawn_key) + spawn_key
    consts = _hash_constants(INIT_A, MULT_A, 4 * max(len(entropy), 4))
    words = [_hashmix(entropy[i] if i < len(entropy) else 0, consts, i) for i in range(4)] + entropy[4:]
    # mix every pool word with the hash of each other pool word, then of each later entropy word
    mixes = [(i_dst, i_src) for i_src in range(len(words)) for i_dst in range(4) if i_dst != i_src]
    for k, (i_dst, i_src) in enumerate(mixes, 4):
        mixed = (MIX_MULT_L * words[i_dst] - MIX_MULT_R * _hashmix(words[i_src], consts, k)) & MASK32
        words[i_dst] = mixed ^ mixed >> 16
    consts = _hash_constants(INIT_B, MULT_B, 8)
    words = [_hashmix(words[i % 4], consts, i) for i in range(8)]
    return np.array([words[k] | words[k + 1] << 32 for k in range(0, 8, 2)], np.uint64).T.copy()


def make_rng(seed: int, *path: object) -> np.random.Generator:
    """Generator of the stream named by a non-negative integer ``seed`` and a path of ints or
    short strings, e.g. ``make_rng(seed, "collect", u)``; equal arguments give equal streams."""
    return np.random.Generator(np.random.PCG64(_Seeded(_pcg64_seeds(seed, path))))


def make_rngs(seed: int, *path: object, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """``make_rng(seed, *path, i)`` for each ``i`` of ``indices``, from one hash of them all."""
    return (np.random.Generator(np.random.PCG64(_Seeded(s))) for s in _pcg64_seeds(seed, path, indices))


def child_seed(seed: int, *path: object) -> int:
    """Independent integer seed for the sub-task ``path``, drawn from its stream."""
    return int(make_rng(seed, *path).integers(0, 2**63))
