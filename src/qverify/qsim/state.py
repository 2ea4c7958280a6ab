"""Pure and mixed states over qubit registers or fermionic sectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .fermion import FermionBasis
from .qubit import QubitBasis, apply_local_unitaries, reduced_density

Basis = Union[QubitBasis, FermionBasis]


@dataclass
class QuantumState:
    """State vector (ndim 1) or density matrix (ndim 2) over a basis."""

    data: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        d = self.basis.dim
        self.data = np.asarray(self.data)
        if self.data.shape not in ((d,), (d, d)):
            raise ValueError(
                f"state shape {self.data.shape} does not match basis dim {d}"
            )

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def num_qubits(self) -> int:
        if not isinstance(self.basis, QubitBasis):
            raise TypeError("not a qubit-register state")
        return self.basis.n

    def validate(self) -> None:
        atol = 1e-10
        if self.is_pure:
            norm = float(np.linalg.norm(self.data))
            if not abs(norm - 1.0) <= atol:
                raise ValueError(f"state norm {norm} is not 1")
        else:
            tr = complex(np.trace(self.data))
            if not abs(tr - 1.0) <= atol:
                raise ValueError(f"density trace {tr} is not 1")
            if not np.allclose(self.data, self.data.conj().T, atol=atol):
                raise ValueError("density matrix is not Hermitian")

    def as_density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def rotated(self, unitaries) -> "QuantumState":
        """Apply one single-qubit unitary per qubit (None entries skipped)."""
        n = self.num_qubits
        if len(unitaries) != n:
            raise ValueError("need exactly one unitary slot per qubit")
        return QuantumState(apply_local_unitaries(self.data, unitaries), self.basis)

    def reduced(self, subsystem) -> "QuantumState":
        """Reduced density matrix on ``subsystem`` as a new mixed state."""
        n = self.num_qubits
        rho = reduced_density(self.data, n, subsystem)
        return QuantumState(rho, QubitBasis(len(list(subsystem))))

    def probabilities(self) -> np.ndarray:
        if self.is_pure:
            p = np.abs(self.data) ** 2
        else:
            p = np.real(np.diag(self.data)).copy()
            p[p < 0] = 0.0
        s = p.sum()
        if not np.isfinite(s) or s <= 0:
            raise ValueError("state has no probability mass")
        return p / s


def zero_state(n: int) -> QuantumState:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    return QuantumState(v, QubitBasis(n))


def ghz_state(n: int) -> QuantumState:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return QuantumState(v, QubitBasis(n))


def plus_state(n: int) -> QuantumState:
    v = np.full(1 << n, 1 / np.sqrt(1 << n), dtype=complex)
    return QuantumState(v, QubitBasis(n))


def theta_state(theta: float) -> QuantumState:
    """cos(theta)|0> + sin(theta)|1>."""
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return QuantumState(v, QubitBasis(1))


def random_pure_state(n: int, rng: np.random.Generator) -> QuantumState:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return QuantumState(v / np.linalg.norm(v), QubitBasis(n))


def random_density_state(n: int, rng: np.random.Generator) -> QuantumState:
    """Full-rank mixed state from a square Ginibre factor G G+ / tr."""
    d = 1 << n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return QuantumState(rho / np.trace(rho).real, QubitBasis(n))


def _finite(value, spec: str):
    if not np.isfinite(value).all():
        raise ValueError(f"state spec {spec!r} has a non-finite value")
    return value


def parse_state_spec(spec: str, rng: np.random.Generator | None = None) -> QuantumState:
    """Mini-language for CLI state arguments.

    ghz:N | zero:N | plus:N | theta:VALUE | random:N (needs rng) |
    amps:a0,a1,... (complex literals, normalized).
    """
    kind, _, arg = spec.partition(":")
    if kind == "random" and rng is None:
        raise ValueError("random state spec needs a seeded generator")
    if kind in ("ghz", "zero", "plus", "random"):
        n = QubitBasis(int(arg)).n  # refuses a count below one before 1 << n
        if kind == "random":
            return random_pure_state(n, rng)
        return {"ghz": ghz_state, "zero": zero_state, "plus": plus_state}[kind](n)
    if kind == "theta":
        return theta_state(_finite(float(arg), spec))
    if kind == "amps":
        v = _finite(np.array([complex(x) for x in arg.split(",")]), spec)
        n = int(np.log2(len(v)))
        if 1 << n != len(v):
            raise ValueError("amplitude count must be a power of two")
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        if not np.isfinite(nrm):
            raise ValueError(f"state spec {spec!r}: the amplitudes' norm overflows")
        if nrm == 0:
            raise ValueError("zero amplitude vector")
        return QuantumState(v / nrm, QubitBasis(n))
    raise ValueError(f"unknown state spec {spec!r}")
