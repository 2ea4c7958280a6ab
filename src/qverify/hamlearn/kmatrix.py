"""Constraint matrix K_nm = <-i [A_n, S_m]> on a (near-)stationary state.

For Hermitian A and S the identity <-i[A,S]> = 2 Im <A S> turns every entry
into one inner product: with phi_m = S_m|psi> cached, a row is
2 Im(chi_n^H Phi) for chi_n = A_n|psi>.  Candidates sharing a bond current
share most of chi_n, so rows are evaluated a (bond, spin) bundle at a time.
A mixed state enters as the ensemble of its eigenpairs (p_k, v_k), and each
entry is the p_k-weighted sum of the pure-state ones.

One engine per state is the only source of K in a learning run: selection,
exact K and both shot models read its rows, ensemble and Phi.  K itself is
a plain (n_constraints, M) float array.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from ..qsim.fermion import (
    SPIN_UP,
    FermionBasis,
    apply_terms,
    assemble_operator,
    current_terms,
    mode_index,
)
from ..qsim.state import QuantumState
from ..rng import make_rngs
from .opbasis import OperatorBasis

if TYPE_CHECKING:  # avoid a circular import; constraints.py uses KRowEngine
    from .constraints import ConstraintOp, ConstraintSet

# sector states per GEMM block of a bundle: bounds the (block, M) work arrays
# to a few MB whatever the sector size
ROW_BLOCK = 8192

# largest sector KSampler's Born model takes: each entry runs a dense eigh,
# and a default `hamlearn run --shots 100` (1 BLAS thread) took 0.5 s on a
# 64-state sector, up to 1.3 s on an 81-state one and 6.5 s on a 225-state one
BORN_MAX_DIM = 64


def _modes(terms) -> set[int]:
    return {mode for t in terms for mode, _ in t.ops}


class KRowEngine:
    """Exact K rows for one state, memoized by constraint label.

    ``ensemble`` is [(p_k, v_k)]: [(1.0, psi)] for a pure state, the
    eigenpairs of rho with p > 0 for a mixed one.  ``phi[k]`` holds the
    columns S_m v_k.

    Every candidate is {J, n_k}/2 for a (bond, spin) current J, which equals
    n_k J when the two commute and J/2 otherwise (see constraints.py).  So
    A v = d * (J v) with d the occupation of k on the image state, or 1/2,
    and the rows of one (bond, spin) bundle share g = J v: they are
    sum_k p_k 2 Im(d^T (conj(g_k) * Phi_k)), one real GEMM per block of
    sector states.

    Candidates carry only (bond, spin, k_site, k_spin), so this class is the
    one place that builds A from them: its rows, A v (``apply``), dense A
    (``dense``) and the modes A acts on (``support``).
    """

    def __init__(self, state: QuantumState, op_basis: OperatorBasis):
        if not isinstance(state.basis, FermionBasis):
            raise TypeError("hamlearn operates on fermionic sector states")
        self.op_basis = op_basis
        self.fbasis: FermionBasis = state.basis
        self._rows: dict[str, np.ndarray] = {}
        if state.is_pure:
            self.ensemble = [(1.0, state.data)]
        else:
            w, v = np.linalg.eigh(state.data)
            self.ensemble = [(float(w[k]), v[:, k]) for k in np.flatnonzero(w > 0)]
        # Hubbard basis elements are real, so phi stays real for real psi
        terms = [list(e.terms) for e in op_basis.elements]
        self.phi = [
            np.stack([apply_terms(self.fbasis, t, vec) for t in terms], axis=1)
            for _, vec in self.ensemble
        ]
        self._supports = [_modes(t) for t in terms]

    def _density(self, cop: ConstraintOp, lo: int = 0, hi: int | None = None):
        """The factor d of A = d * J on sector states lo:hi (a scalar 1/2 when
        n_k does not commute with the current)."""
        if cop.k_spin == cop.spin and cop.k_site in cop.bond:
            return 0.5
        occ = self.fbasis.state_up if cop.k_spin == SPIN_UP else self.fbasis.state_down
        return ((occ[lo:hi] >> cop.k_site) & 1).astype(float)

    def _current(self, cop: ConstraintOp, vec: np.ndarray) -> np.ndarray:
        return apply_terms(self.fbasis, current_terms(*cop.bond, cop.spin), vec)

    def apply(self, cop: ConstraintOp, vec: np.ndarray) -> np.ndarray:
        """A_n vec."""
        return self._density(cop) * self._current(cop, vec)

    def dense(self, cop: ConstraintOp) -> np.ndarray:
        """A_n as a dense sector matrix: J scaled row by row by d."""
        current = assemble_operator(self.fbasis, current_terms(*cop.bond, cop.spin)).toarray()
        return np.reshape(self._density(cop), (-1, 1)) * current

    @staticmethod
    def support(cop: ConstraintOp) -> set[int]:
        """The modes A_n acts on: the bond's two and the density's one."""
        i, j = cop.bond
        return {mode_index(i, cop.spin), mode_index(j, cop.spin), mode_index(cop.k_site, cop.k_spin)}

    def chi(self, cop: ConstraintOp) -> list[np.ndarray]:
        """A_n v_k for each ensemble member."""
        return [self.apply(cop, vec) for _, vec in self.ensemble]

    def _bundle_rows(self, cops: list[ConstraintOp]) -> np.ndarray:
        """Rows of candidates sharing one (bond, spin) current."""
        gs = [self._current(cops[0], vec) for _, vec in self.ensemble]
        out = np.zeros((len(cops), self.op_basis.m))
        dim = self.fbasis.dim
        for lo in range(0, dim, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, dim)
            # sum_k p_k Im(conj(g_k) * Phi_k) on this block, in real arithmetic
            w = np.zeros((hi - lo, self.op_basis.m))
            for (p, _), g, phi in zip(self.ensemble, gs, self.phi):
                f = phi[lo:hi]
                w -= (p * g.imag[lo:hi, None]) * f.real
                if np.iscomplexobj(f):
                    w += (p * g.real[lo:hi, None]) * f.imag
            d = np.empty((len(cops), hi - lo))
            for r, cop in enumerate(cops):
                d[r] = self._density(cop, lo, hi)
            out += d @ w
        # even operators on disjoint modes commute, so these entries are zero;
        # left at rounding level they carry a random sign, and which vector
        # an SVD picks from a degenerate null space of K depends on it
        for r, cop in enumerate(cops):
            support = self.support(cop)
            out[r, [not (support & s) for s in self._supports]] = 0.0
        return 2.0 * out

    def rows(self, cops: list[ConstraintOp]) -> np.ndarray:
        """(len(cops), M) K rows; rows not yet memoized are evaluated bundle
        by bundle."""
        bundles: dict[tuple, dict[str, ConstraintOp]] = {}
        for cop in cops:
            if cop.label not in self._rows:
                bundles.setdefault((cop.bond, cop.spin), {})[cop.label] = cop
        for group in bundles.values():
            self._rows.update(zip(group, self._bundle_rows(list(group.values()))))
        return np.stack([self._rows[cop.label] for cop in cops])


def k_matrix_exact(
    state: QuantumState,
    op_basis: OperatorBasis,
    constraints: ConstraintSet,
    engine: KRowEngine | None = None,
) -> np.ndarray:
    """Exact (n_constraints, M) K for the selected constraints."""
    eng = engine if engine is not None else KRowEngine(state, op_basis)
    return eng.rows(constraints.ops)


class KSampler:
    """Shot-noise models for K: per-entry Born sampling on sectors of at most
    BORN_MAX_DIM states, a Gaussian surrogate above.

    Both models read the state, its rows and Phi from ``engine``.  Entry
    (n, m) draws from its own derived stream, so results do not depend on
    evaluation order.  Spectral data (Born) and exact means/variances
    (surrogate) are precomputed once and reused across sample() calls.
    """

    def __init__(self, engine: KRowEngine, constraints: ConstraintSet):
        self.engine = engine
        self.op_basis = engine.op_basis
        self.constraints = constraints
        self.n_rows = len(constraints.ops)
        self.n_cols = self.op_basis.m
        self._spectral = None
        if engine.fbasis.dim <= BORN_MAX_DIM:
            self._spectral = self._precompute_spectral()
        else:
            self._means, self._vars = self._precompute_surrogate()

    def _precompute_spectral(self):
        fb = self.engine.fbasis
        s_dense = [assemble_operator(fb, list(e.terms)).toarray() for e in self.op_basis.elements]
        out = []
        for cop in self.constraints.ops:
            a = self.engine.dense(cop)
            row = []
            for s in s_dense:
                o = -1j * (a @ s - s @ a)
                # clean numerical Hermiticity
                w, v = scipy.linalg.eigh((o + o.conj().T) / 2)
                probs = reduce(
                    np.add, (p * np.abs(v.conj().T @ vec) ** 2 for p, vec in self.engine.ensemble)
                )
                probs = np.clip(probs, 0.0, None)
                probs /= probs.sum()
                row.append((w, probs))
            out.append(row)
        return out

    def _precompute_surrogate(self):
        fb = self.engine.fbasis
        means = self.engine.rows(self.constraints.ops)
        variances = np.zeros((self.n_rows, self.n_cols))
        for n, cop in enumerate(self.constraints.ops):
            chis = self.engine.chi(cop)
            for m, elem in enumerate(self.op_basis.elements):
                second = 0.0
                for (p, _), chi, phi in zip(self.engine.ensemble, chis, self.engine.phi):
                    # O v = -i (A phi_m - S chi_n); <O^2> = sum_k p_k ||O v_k||^2
                    w = -1j * (
                        self.engine.apply(cop, phi[:, m])
                        - apply_terms(fb, list(elem.terms), chi)
                    )
                    second += p * float(np.real(np.vdot(w, w)))
                variances[n, m] = max(second - means[n, m] ** 2, 0.0)
        return means, variances

    def sample(self, shots_per_entry: int, seed: int) -> np.ndarray:
        """(n_constraints, M) K estimated from ``shots_per_entry`` shots per entry."""
        if shots_per_entry < 1:
            raise ValueError("shots_per_entry must be positive")
        vals = np.zeros((self.n_rows, self.n_cols))
        for n in range(self.n_rows):
            # shots in the path: different budgets draw independently under one seed
            for m, rng in enumerate(make_rngs(seed, "kentry", shots_per_entry, n, indices=range(self.n_cols))):
                if self._spectral is not None:
                    w, probs = self._spectral[n][m]
                    counts = rng.multinomial(shots_per_entry, probs)
                    vals[n, m] = float(counts @ w) / shots_per_entry
                else:
                    sd = float(np.sqrt(self._vars[n, m] / shots_per_entry))
                    vals[n, m] = self._means[n, m] + rng.normal(0.0, sd)
        return vals
