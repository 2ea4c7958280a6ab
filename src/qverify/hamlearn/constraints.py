"""Constraint operators and greedy selection of informative K rows.

Candidates are symmetrized current-density products on nearest-neighbour
triples: A = {J_ij^s, n_k^s'} / 2 with J_ij^s = i (c+_is c_js - h.c.),
k running over the bond's endpoints and their neighbours.  The
anticommutator equals the plain product whenever the two factors commute
(opposite spins, or k outside the bond) and keeps A Hermitian in the
remaining cases, where it degenerates to the bare bond current.

Selection is greedy on the exact K rows: a candidate is kept while its row
is independent of the accepted span (relative residual >= INDEPENDENCE_TOL).
On an exactly stationary state every row is orthogonal to the true
coefficient vector, so at most M-1 independent rows exist; when the
requested count exceeds the achievable rank, remaining slots are filled by
previously rejected candidates in order (flagged dependent).  Dependent
rows are harmless for exact reconstruction and add signal under shot noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..qsim.fermion import (
    SPIN_DOWN,
    SPIN_UP,
    FermionTerm,
    LatticeSpec,
    current_terms,
    multiply_terms,
    number_terms,
    scale_terms,
)
from ..qsim.state import QuantumState
from ..rng import make_rng
from .kmatrix import KRowEngine
from .opbasis import OperatorBasis

INDEPENDENCE_TOL = 1e-8


@dataclass(frozen=True)
class ConstraintOp:
    label: str
    bond: tuple[int, int]
    spin: int
    k_site: int
    k_spin: int
    terms: tuple[FermionTerm, ...]


def _sym_current_density(i: int, j: int, spin: int, k: int, kspin: int) -> tuple[FermionTerm, ...]:
    cur = current_terms(i, j, spin)
    den = number_terms(k, kspin)
    sym = scale_terms(multiply_terms(cur, den) + multiply_terms(den, cur), 0.5)
    return tuple(sym)


def enumerate_candidates(lattice: LatticeSpec) -> list[ConstraintOp]:
    """Deterministic candidate pool, ordered by (bond, spin, k site, k spin)."""
    out: list[ConstraintOp] = []
    for i, j in lattice.bonds():
        k_sites = sorted(set([i, j]) | set(lattice.neighbours(i)) | set(lattice.neighbours(j)))
        for spin in (SPIN_UP, SPIN_DOWN):
            s = "u" if spin == SPIN_UP else "d"
            for k in k_sites:
                for kspin in (SPIN_UP, SPIN_DOWN):
                    ks = "u" if kspin == SPIN_UP else "d"
                    out.append(
                        ConstraintOp(
                            label=f"cur[{i},{j}]{s}*n[{k}]{ks}",
                            bond=(i, j),
                            spin=spin,
                            k_site=k,
                            k_spin=kspin,
                            terms=_sym_current_density(i, j, spin, k, kspin),
                        )
                    )
    return out


@dataclass
class ConstraintSet:
    lattice: LatticeSpec
    ops: list[ConstraintOp]
    independent: list[bool]
    residuals: list[float]
    rank: int
    tol: float
    shuffle_seed: int | None
    provenance: dict = field(default_factory=dict)

    @property
    def n_constraints(self) -> int:
        return len(self.ops)


def build_constraints(
    state: QuantumState,
    op_basis: OperatorBasis,
    n_constraints: int,
    candidates: list[ConstraintOp] | None = None,
    shuffle_seed: int | None = None,
    engine: KRowEngine | None = None,
) -> ConstraintSet:
    """Greedily select ``n_constraints`` candidates by K-row independence.

    ``shuffle_seed`` permutes the candidate order (used by learning curves
    to randomize which rows are visited first); None keeps the deterministic
    enumeration order.  Raises if the pool cannot fill the request.
    """
    if n_constraints < 1:
        raise ValueError("n_constraints must be positive")
    pool = list(candidates) if candidates is not None else enumerate_candidates(op_basis.lattice)
    if shuffle_seed is not None:
        order = make_rng(shuffle_seed, "constraint-shuffle").permutation(len(pool))
        pool = [pool[i] for i in order]
    if n_constraints > len(pool):
        raise ValueError(
            f"requested {n_constraints} constraints but the pool has {len(pool)}"
        )
    eng = engine if engine is not None else KRowEngine(state, op_basis)

    accepted: list[ConstraintOp] = []
    independent: list[bool] = []
    residuals: list[float] = []
    rejected: list[tuple[ConstraintOp, float]] = []
    qrows: list[np.ndarray] = []  # orthonormal basis of the accepted span
    row_scale = 0.0

    for cand in pool:
        if len(accepted) >= n_constraints:
            break
        row = eng.row(cand)
        nrm = float(np.linalg.norm(row))
        row_scale = max(row_scale, nrm)
        if nrm <= 1e-14 * max(row_scale, 1.0):
            rejected.append((cand, 0.0))
            continue
        resid = row.copy()
        for q in qrows:
            resid -= (q @ resid) * q
        rel = float(np.linalg.norm(resid)) / nrm
        if rel >= INDEPENDENCE_TOL:
            qrows.append(resid / np.linalg.norm(resid))
            accepted.append(cand)
            independent.append(True)
            residuals.append(rel)
        else:
            rejected.append((cand, rel))

    # fill with dependent rows once the achievable rank is exhausted: a
    # candidate rejected against a smaller span stays dependent later on
    fill_iter = iter(rejected)
    while len(accepted) < n_constraints:
        try:
            cand, rel = next(fill_iter)
        except StopIteration:
            raise ValueError(
                f"constraint pool exhausted at {len(accepted)} rows "
                f"(rank {len(qrows)}) before reaching {n_constraints}"
            )
        accepted.append(cand)
        independent.append(False)
        residuals.append(rel)

    return ConstraintSet(
        lattice=op_basis.lattice,
        ops=accepted,
        independent=independent,
        residuals=residuals,
        rank=len(qrows),
        tol=INDEPENDENCE_TOL,
        shuffle_seed=shuffle_seed,
        provenance={
            "pool_size": len(pool),
            "n_rejected_pool": len(rejected),
            "selection": "greedy-independence+dependent-fill",
        },
    )
