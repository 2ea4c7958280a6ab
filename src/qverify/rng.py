"""Seeding discipline shared by every stochastic routine in the package.

All randomness flows through numpy Generators built from a SeedSequence.
Child streams are derived with ``spawn_key`` material rather than ad-hoc
integer arithmetic, so results are independent of scheduling order: the
stream for sub-task ``(seed, "kmatrix", n, m)`` is the same no matter
when (or whether) any other sub-task runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Recorded in dataset provenance so files document their own randomness.
GENERATOR_ID = "numpy-pcg64/seedsequence-spawn"


def _key_material(parts: Sequence[object]) -> list[int]:
    out: list[int] = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            out.append(int(p) & 0xFFFFFFFF)
        elif isinstance(p, str):
            # stable string -> word encoding, independent of PYTHONHASHSEED
            acc = 2166136261
            for ch in p.encode("utf-8"):
                acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
            out.append(acc)
        else:
            raise TypeError(f"unsupported seed material: {p!r}")
    return out


def make_rng(seed: int, *path: object) -> np.random.Generator:
    """Generator for the stream identified by ``seed`` plus a derivation path.

    ``path`` elements (ints or short strings) name the sub-task, e.g.
    ``make_rng(seed, "collect", setting_index)``.  Equal arguments always
    produce the same stream; there is no unseeded stream.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(_key_material(path)))
    return np.random.Generator(np.random.PCG64(ss))


def child_seed(seed: int, *path: object) -> int:
    """Independent integer seed for the sub-task ``path``, drawn from its stream."""
    return int(make_rng(seed, *path).integers(0, 2**63))

