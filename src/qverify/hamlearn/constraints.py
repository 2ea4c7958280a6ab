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

from dataclasses import dataclass

import numpy as np

from ..qsim.fermion import SPIN_DOWN, SPIN_UP, LatticeSpec
from ..qsim.state import QuantumState
from ..rng import make_rng
from .kmatrix import KRowEngine
from .opbasis import OperatorBasis

INDEPENDENCE_TOL = 1e-8


@dataclass(frozen=True)
class ConstraintOp:
    """A = {J_bond^spin, n_k_site^k_spin} / 2; KRowEngine builds A from these fields."""

    label: str
    bond: tuple[int, int]
    spin: int
    k_site: int
    k_spin: int


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
                        )
                    )
    return out


@dataclass
class ConstraintSet:
    ops: list[ConstraintOp]  # the first ``rank`` independent, the rest dependent fill
    rank: int
    # n_rejected_pool: candidates visited and rejected before selection stopped
    provenance: dict


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

    rows = eng.rows(pool)  # in visiting order
    norms = np.linalg.norm(rows, axis=1)
    nonzero = norms > 1e-14 * np.maximum(np.maximum.accumulate(norms), 1.0)
    accepted: list[ConstraintOp] = []
    rejected: list[ConstraintOp] = []
    # rows[start:] hold the residuals of the unvisited candidates against the
    # accepted span; each accepted row projects them once
    start = 0
    while len(accepted) < n_constraints and start < len(pool):
        rel = np.zeros(len(pool) - start)
        np.divide(np.linalg.norm(rows[start:], axis=1), norms[start:], out=rel, where=nonzero[start:])
        hits = np.flatnonzero(rel >= INDEPENDENCE_TOL)
        stop = start + int(hits[0]) if hits.size else len(pool)
        rejected += pool[start:stop]
        if not hits.size:
            break
        q = rows[stop] / np.linalg.norm(rows[stop])
        accepted.append(pool[stop])
        tail = rows[stop + 1 :]
        tail -= np.outer(tail @ q, q)
        start = stop + 1

    # fill with dependent rows once the achievable rank is exhausted: a
    # candidate rejected against a smaller span stays dependent later on.
    # Unless the request is filled, every candidate of the pool (at least
    # n_constraints of them) was accepted or rejected, so the fill suffices.
    rank = len(accepted)
    return ConstraintSet(
        ops=accepted + rejected[: n_constraints - rank],
        rank=rank,
        provenance={"n_rejected_pool": len(rejected)},
    )
