"""Qubit registers: Pauli operators, local rotations, partial traces.

Bit convention: basis index ``i`` corresponds to the bitstring
``format(i, '0{n}b')`` and qubit 0 is the leftmost character (most
significant bit).  Reshaping an amplitude vector to ``(2,) * n`` row-major
therefore puts qubit ``q`` on axis ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)

# i^k, exact in complex arithmetic
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


@dataclass(frozen=True)
class QubitBasis:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one qubit")

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class PauliTerm:
    """coeff * tensor product of single-qubit factors, e.g. 0.5 * 'XIZ'."""

    coeff: complex
    factors: str

    def __post_init__(self) -> None:
        if not self.factors or any(f not in "IXYZ" for f in self.factors):
            raise ValueError(f"bad Pauli factors {self.factors!r}")

    @property
    def n(self) -> int:
        return len(self.factors)

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, f in enumerate(self.factors) if f != "I")

    def masks(self) -> tuple[int, int, int]:
        """(x_mask, z_mask, number of Y factors), qubit 0 as the high bit.

        The term maps basis column c to row c ^ x_mask with amplitude
        coeff * i^{#Y} * (-1)^{popcount(c & z_mask)}.
        """
        x = z = 0
        for f in self.factors:
            x = (x << 1) | (f in "XY")
            z = (z << 1) | (f in "ZY")
        return x, z, self.factors.count("Y")


def pauli_entries(term: PauliTerm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the one nonzero entry per column of a term."""
    x, z, n_y = term.masks()
    cols = np.arange(1 << term.n)
    signs = np.where(np.bitwise_count(cols & z) & 1, -1.0, 1.0)
    return cols ^ x, cols, (complex(term.coeff) * _I_POWERS[n_y % 4]) * signs


def assemble_pauli_operator(n: int, terms: Sequence[PauliTerm]) -> sp.csr_matrix:
    """Sum of Pauli terms on n qubits as a complex CSR (qubit 0 = most
    significant factor), added in term order so that every entry rounds as a
    dense ``+=`` over the same terms would."""
    dim = 1 << n
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for t in terms:
        if t.n != n:
            raise ValueError(f"term {t.factors!r} does not act on {n} qubits")
        rows, cols, vals = pauli_entries(t)
        out = out + sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return out


def apply_gate(vec: np.ndarray, n: int, gate: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """A 2^k x 2^k gate on ``qubits`` of an n-qubit amplitude vector.

    The gate's row and column index reads the bits of ``qubits`` in the order
    given, the first as the most significant, so (2, 0) applies a two-qubit
    gate with qubit 2 as its high bit."""
    qubits = tuple(qubits)
    if any(not 0 <= q < n for q in qubits):
        raise ValueError(f"gate qubits {qubits} outside 0..{n - 1}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate qubits {qubits} are not distinct")
    k = len(qubits)
    g = np.asarray(gate, dtype=complex).reshape((2,) * (2 * k))
    psi = np.tensordot(g, vec.reshape((2,) * n), axes=(list(range(k, 2 * k)), list(qubits)))
    psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return np.ascontiguousarray(psi).reshape(-1)


def apply_local_unitaries(
    data: np.ndarray, unitaries: Sequence[np.ndarray | None]
) -> np.ndarray:
    """Product of single-qubit unitaries applied to a pure vector or a
    density matrix (as U rho U+).  ``unitaries[q]`` may be None for identity.

    A density matrix is rotated as the 2n-qubit vector it reshapes to: U on
    the n row qubits, conj(U) on the n column qubits."""
    n = len(unitaries)
    if data.shape == (1 << n, 1 << n):
        conj = [None if u is None else np.conj(u) for u in unitaries]
        return apply_local_unitaries(data.reshape(-1), [*unitaries, *conj]).reshape(data.shape)
    if data.shape != (1 << n,):
        raise ValueError(f"state shape {data.shape} does not match {n} unitaries")
    out = data.astype(complex, copy=True)
    for q, u in enumerate(unitaries):
        if u is not None:
            out = apply_gate(out, n, u, (q,))
    return out


def reduced_density(data: np.ndarray, n: int, subsystem: Sequence[int]) -> np.ndarray:
    """Partial trace down to ``subsystem`` (kept in the order given)."""
    sub = list(subsystem)
    if len(set(sub)) != len(sub) or any(not 0 <= q < n for q in sub):
        raise ValueError(f"bad subsystem {subsystem!r} for {n} qubits")
    rest = [q for q in range(n) if q not in sub]
    a, b = len(sub), len(rest)
    if data.ndim == 1:
        psi = data.reshape((2,) * n)
        psi = np.transpose(psi, sub + rest).reshape(1 << a, 1 << b)
        return psi @ psi.conj().T
    if data.ndim == 2:
        t = data.reshape((2,) * (2 * n))
        order = sub + rest + [n + q for q in sub] + [n + q for q in rest]
        t = np.transpose(t, order).reshape(1 << a, 1 << b, 1 << a, 1 << b)
        return np.einsum("abcb->ac", t)
    raise ValueError("expected a vector or a square matrix")
