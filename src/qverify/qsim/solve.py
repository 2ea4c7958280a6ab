"""Ground states and Born sampling.

Ground states use dense linear algebra up to DENSE_CUTOFF dimensions and
sparse Lanczos above; every call checks its residual against the operator
norm before returning.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fermion import FermionBasis, LatticeSpec, assemble_operator, hubbard_terms
from .state import Basis, QuantumState

DENSE_CUTOFF = 4096
RESIDUAL_RTOL = 1e-8


def _as_dense(op) -> np.ndarray:
    if sp.issparse(op):
        return op.toarray()
    return np.asarray(op)


def _inf_norm(op) -> float:
    if sp.issparse(op):
        return float(abs(op).sum(axis=1).max())
    return float(np.abs(op).sum(axis=1).max())


def ground_state(op, basis: Basis, maxiter: int = 2000) -> tuple[float, QuantumState]:
    """Lowest eigenpair of a Hermitian operator on ``basis``.

    Residual ||H psi - E psi|| <= 1e-8 * ||H|| is checked on every call.
    """
    dim = basis.dim
    if op.shape != (dim, dim):
        raise ValueError("operator does not match basis dimension")
    if dim <= DENSE_CUTOFF:
        w, v = scipy.linalg.eigh(_as_dense(op))
        energy, vec = float(w[0]), v[:, 0]
    else:
        w, v = spla.eigsh(op, k=1, which="SA", maxiter=maxiter)
        energy, vec = float(w[0]), v[:, 0]
    vec = vec / np.linalg.norm(vec)
    resid = float(np.linalg.norm(op @ vec - energy * vec))
    hnorm = _inf_norm(op)
    if resid > RESIDUAL_RTOL * max(hnorm, 1.0):
        raise ArithmeticError(
            f"eigensolver residual {resid:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||H|| ({hnorm:.3e})"
        )
    return energy, QuantumState(vec, basis)


def hubbard_ground_state(lattice: LatticeSpec) -> tuple[float, QuantumState]:
    """Ground energy and state of the lattice's Hubbard model in its sector."""
    basis = FermionBasis(lattice)
    return ground_state(assemble_operator(basis, hubbard_terms(lattice)), basis)


def sample_counts(state: QuantumState, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Born-sampled int64 (outcome index, count) rows, outcomes ascending, zeros omitted."""
    counts = rng.multinomial(n_shots, state.probabilities())
    seen = np.flatnonzero(counts)
    return np.column_stack((seen, counts[seen])).astype(np.int64, copy=False)
