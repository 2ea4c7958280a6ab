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


def pauli_term_matrix(term: PauliTerm) -> np.ndarray:
    """Dense matrix of one Pauli term (qubit 0 = most significant factor)."""
    return assemble_pauli_operator(term.n, [term])


def assemble_pauli_operator(
    n: int, terms: Sequence[PauliTerm], sparse: bool = False
):
    """Sum of Pauli terms on n qubits as a dense array (or CSR)."""
    for t in terms:
        if t.n != n:
            raise ValueError(f"term {t.factors!r} does not act on {n} qubits")
    dim = 1 << n
    entries = [pauli_entries(t) for t in terms]
    if sparse:
        if not entries:
            return sp.csr_matrix((dim, dim), dtype=complex)
        rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
        return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    out = np.zeros((dim, dim), dtype=complex)
    for rows, cols, vals in entries:
        out[rows, cols] += vals
    return out


def apply_single_qubit_gate(vec: np.ndarray, n: int, gate: np.ndarray, qubit: int) -> np.ndarray:
    """U on one qubit of an n-qubit amplitude vector."""
    if not (0 <= qubit < n):
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    psi = vec.reshape((2,) * n)
    psi = np.tensordot(np.asarray(gate, dtype=complex), psi, axes=([1], [qubit]))
    psi = np.moveaxis(psi, 0, qubit)
    return np.ascontiguousarray(psi).reshape(-1)


def apply_two_qubit_gate(
    vec: np.ndarray, n: int, gate: np.ndarray, q0: int, q1: int
) -> np.ndarray:
    """4x4 gate on qubits (q0, q1); gate row/col index is 2*bit(q0) + bit(q1)."""
    if q0 == q1:
        raise ValueError("two-qubit gate needs distinct qubits")
    g = np.asarray(gate, dtype=complex).reshape(2, 2, 2, 2)
    psi = vec.reshape((2,) * n)
    psi = np.tensordot(g, psi, axes=([2, 3], [q0, q1]))
    psi = np.moveaxis(psi, [0, 1], [q0, q1])
    return np.ascontiguousarray(psi).reshape(-1)


def apply_local_unitaries(
    data: np.ndarray, unitaries: Sequence[np.ndarray | None]
) -> np.ndarray:
    """Product of single-qubit unitaries applied to a pure vector or a
    density matrix (as U rho U+).  ``unitaries[q]`` may be None for identity."""
    n = len(unitaries)
    if data.ndim == 1:
        if data.shape[0] != 1 << n:
            raise ValueError("state size does not match number of unitaries")
        out = data.astype(complex, copy=True)
        for q, u in enumerate(unitaries):
            if u is not None:
                out = apply_single_qubit_gate(out, n, u, q)
        return out
    if data.ndim == 2:
        rho = data.astype(complex, copy=True)
        for q, u in enumerate(unitaries):
            if u is None:
                continue
            t = rho.reshape((2,) * (2 * n))
            t = np.tensordot(np.asarray(u, dtype=complex), t, axes=([1], [q]))
            t = np.moveaxis(t, 0, q)
            t = np.tensordot(np.asarray(u, dtype=complex).conj(), t, axes=([1], [n + q]))
            t = np.moveaxis(t, 0, n + q)
            rho = np.ascontiguousarray(t).reshape(1 << n, 1 << n)
        return rho
    raise ValueError("expected a vector or a square matrix")


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
