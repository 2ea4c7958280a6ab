"""Canonical table of the 24 single-qubit Clifford unitaries.

Generation rule, fixed so the enumeration is reproducible from scratch:
breadth-first closure of products of H and S starting from the identity,
with every product normalized to a canonical global phase (first nonzero
entry of the flattened matrix made real and positive) and deduplicated on
the phase-normalized entries rounded to 9 decimals.  The closed set has
exactly 24 elements; the table orders them by the byte encoding of the
rounded entries, which is stable across platforms.
"""

from __future__ import annotations

import numpy as np

from ..qsim.qubit import HADAMARD, S_GATE

_PHASE_TOL = 1e-9


def phase_normalize(u: np.ndarray) -> np.ndarray:
    """Divide out the global phase: first nonzero entry made real positive.

    The pivot entry is forced exactly real so the operation is idempotent at
    the bit level (serialized matrices re-normalize to identical bytes).
    """
    arr = np.array(u, dtype=complex)
    flat = arr.ravel()
    for i, entry in enumerate(flat):
        if abs(entry) > _PHASE_TOL:
            if entry.imag == 0.0:
                # abs(e)/e loses an ulp even for real e; negate exactly instead
                return -arr if entry.real < 0.0 else arr
            v = arr * (abs(entry) / entry)
            v.flat[i] = abs(v.flat[i])
            return v
    raise ValueError("zero matrix has no phase")


def _canonical_key(u: np.ndarray) -> bytes:
    arr = np.round(np.ascontiguousarray(u).view(np.float64), 9) + 0.0
    return arr.tobytes()


def _generate_table() -> np.ndarray:
    seen: dict[bytes, np.ndarray] = {}
    frontier = [phase_normalize(np.eye(2, dtype=complex))]
    seen[_canonical_key(frontier[0])] = frontier[0]
    while frontier:
        nxt: list[np.ndarray] = []
        for u in frontier:
            for g in (HADAMARD, S_GATE):
                v = phase_normalize(g @ u)
                key = _canonical_key(v)
                if key not in seen:
                    seen[key] = v
                    nxt.append(v)
        frontier = nxt
    table = np.stack([seen[k] for k in sorted(seen)])
    table.setflags(write=False)
    return table


CLIFFORD_TABLE: np.ndarray = _generate_table()

NUM_CLIFFORDS: int = CLIFFORD_TABLE.shape[0]
