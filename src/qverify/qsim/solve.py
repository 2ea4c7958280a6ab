"""Ground states and Born sampling.

``ground_state`` takes a sparse operator and picks its solver from the
dimension alone: dense ``eigh`` up to DENSE_CUTOFF states, Lanczos from a
fixed start vector above.  It refuses a non-finite operator and checks the
residual against the operator norm before returning.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..rng import make_rng
from .fermion import FermionBasis, LatticeSpec, assemble_operator, hubbard_terms
from .state import Basis, QuantumState

DENSE_CUTOFF = 512
RESIDUAL_RTOL = 1e-8


def ground_state(op: sp.spmatrix, basis: Basis, maxiter: int = 2000) -> tuple[float, QuantumState]:
    """Lowest eigenpair of a sparse Hermitian operator on ``basis``.

    Residual ||H psi - E psi|| <= 1e-8 * ||H|| is checked on every call.
    """
    dim = basis.dim
    if op.shape != (dim, dim):
        raise ValueError("operator does not match basis dimension")
    if not np.isfinite(op.data).all():
        raise ValueError("operator has non-finite entries")
    if dim <= DENSE_CUTOFF:
        w, v = scipy.linalg.eigh(op.toarray())
    elif not op.data.any():
        # ARPACK cannot start on a zero operator; e_0 is the vector eigh returns
        w, v = np.zeros(1), np.eye(dim, 1)
    else:
        # a fixed start vector makes the solve reproducible; a random one, as a
        # symmetry can leave all ones orthogonal to the ground state
        v0 = make_rng(0, "ground_state", dim).standard_normal(dim)
        w, v = spla.eigsh(op, k=1, which="SA", maxiter=maxiter, v0=v0)
    energy, vec = float(w[0]), v[:, 0] / np.linalg.norm(v[:, 0])
    resid = float(np.linalg.norm(op @ vec - energy * vec))
    hnorm = float(abs(op).sum(axis=1).max())
    if not resid <= RESIDUAL_RTOL * max(hnorm, 1.0):
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
