"""Spinful fermions on open rectangular lattices, in fixed occupation sectors.

Conventions (load-bearing, used by every routine below):

- Sites are numbered row-major: ``site = r * cols + c``, zero-based.
- Spin: 0 = up, 1 = down.  Mode index ``m = 2 * site + spin`` (site-major).
- A basis state is ``|n> = (c+_0)^{n_0} (c+_1)^{n_1} ... |vac>`` with mode
  order as above, so applying ``c_m``/``c+_m`` picks up the parity of the
  occupied modes strictly below ``m``.
- Sector basis: all states with fixed (n_up, n_down).  Up and down
  occupations are stored as per-spin site bitmasks (bit ``s`` = site ``s``),
  each spin's configurations sorted by ascending bitmask integer, and the
  full index is ``i_up * n_down_configs + i_down`` (up-major).

Operators are lists of :class:`FermionTerm` monomials.  Assembly is
vectorized over the whole sector at once; a monomial maps each basis state
to at most one other, so scatter writes never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp

SPIN_UP = 0
SPIN_DOWN = 1


def mode_index(site: int, spin: int) -> int:
    return 2 * site + spin


@dataclass(frozen=True)
class LatticeSpec:
    """Open-boundary rows x cols Hubbard lattice with a fixed particle sector."""

    rows: int
    cols: int
    j: float = 1.0
    u: float = 0.0
    nup: int = 0
    ndown: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice must have at least one site")
        n = self.n_sites
        if not (0 <= self.nup <= n and 0 <= self.ndown <= n):
            raise ValueError(
                f"sector ({self.nup},{self.ndown}) invalid for {n} sites"
            )

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    def site(self, r: int, c: int) -> int:
        return r * self.cols + c

    def bonds(self) -> list[tuple[int, int]]:
        """Nearest-neighbour bonds, horizontal row-major then vertical row-major."""
        out = []
        for r in range(self.rows):
            for c in range(self.cols - 1):
                out.append((self.site(r, c), self.site(r, c + 1)))
        for r in range(self.rows - 1):
            for c in range(self.cols):
                out.append((self.site(r, c), self.site(r + 1, c)))
        return out

    def neighbours(self, i: int) -> list[int]:
        out = []
        for a, b in self.bonds():
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)


@dataclass(frozen=True)
class FermionTerm:
    """coeff * product of ladder operators; ops are written left to right,
    the rightmost acts on the ket first.  Each op is (mode, is_dagger)."""

    coeff: complex
    ops: tuple[tuple[int, bool], ...]


def hopping_terms(i: int, j: int, spin: int, coeff: float = 1.0) -> list[FermionTerm]:
    """c+_{i,spin} c_{j,spin} + h.c."""
    mi, mj = mode_index(i, spin), mode_index(j, spin)
    return [
        FermionTerm(coeff, ((mi, True), (mj, False))),
        FermionTerm(coeff, ((mj, True), (mi, False))),
    ]


def current_terms(i: int, j: int, spin: int, coeff: float = 1.0) -> list[FermionTerm]:
    """i (c+_{i,spin} c_{j,spin} - h.c.), the bond current (Hermitian)."""
    mi, mj = mode_index(i, spin), mode_index(j, spin)
    return [
        FermionTerm(1j * coeff, ((mi, True), (mj, False))),
        FermionTerm(-1j * coeff, ((mj, True), (mi, False))),
    ]


def number_terms(site: int, spin: int, coeff: float = 1.0) -> list[FermionTerm]:
    m = mode_index(site, spin)
    return [FermionTerm(coeff, ((m, True), (m, False)))]


def doublon_terms(site: int, coeff: float = 1.0) -> list[FermionTerm]:
    """n_{site,up} n_{site,down}."""
    mu, md = mode_index(site, SPIN_UP), mode_index(site, SPIN_DOWN)
    return [FermionTerm(coeff, ((mu, True), (mu, False), (md, True), (md, False)))]


def hubbard_terms(lat: LatticeSpec) -> list[FermionTerm]:
    """H = -J sum_<ij>,s (c+_is c_js + h.c.) + U sum_i n_iu n_id."""
    terms: list[FermionTerm] = []
    for i, j in lat.bonds():
        for spin in (SPIN_UP, SPIN_DOWN):
            terms += hopping_terms(i, j, spin, coeff=-lat.j)
    for i in range(lat.n_sites):
        terms += doublon_terms(i, coeff=lat.u)
    return terms


def _sector_configs(n_sites: int, n_part: int) -> np.ndarray:
    """All site bitmasks with popcount == n_part, ascending."""
    masks = []
    for occ in combinations(range(n_sites), n_part):
        m = 0
        for s in occ:
            m |= 1 << s
        masks.append(m)
    return np.array(sorted(masks), dtype=np.uint32)


class FermionBasis:
    """Occupation-number basis of the fixed (n_up, n_down) sector."""

    def __init__(self, lattice: LatticeSpec):
        self.lattice = lattice
        n = lattice.n_sites
        self.n_sites = n
        self.up_configs = _sector_configs(n, lattice.nup)
        self.down_configs = _sector_configs(n, lattice.ndown)
        self.n_up_configs = len(self.up_configs)
        self.n_down_configs = len(self.down_configs)
        self.dim = self.n_up_configs * self.n_down_configs
        # inverse lookup: bitmask -> per-spin config index (-1 if outside sector)
        self._up_index = np.full(1 << n, -1, dtype=np.int32)
        self._up_index[self.up_configs] = np.arange(self.n_up_configs, dtype=np.int32)
        self._down_index = np.full(1 << n, -1, dtype=np.int32)
        self._down_index[self.down_configs] = np.arange(
            self.n_down_configs, dtype=np.int32
        )
        self._state_up: np.ndarray | None = None
        self._state_down: np.ndarray | None = None

    # per-full-index occupation bitmasks, built once on first use
    @property
    def state_up(self) -> np.ndarray:
        if self._state_up is None:
            self._state_up = np.repeat(self.up_configs, self.n_down_configs)
        return self._state_up

    @property
    def state_down(self) -> np.ndarray:
        if self._state_down is None:
            self._state_down = np.tile(self.down_configs, self.n_up_configs)
        return self._state_down

    def __repr__(self) -> str:
        lat = self.lattice
        return (
            f"FermionBasis({lat.rows}x{lat.cols}, nup={lat.nup}, "
            f"ndown={lat.ndown}, dim={self.dim})"
        )


def _term_action(
    basis: FermionBasis, term: FermionTerm
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized action of one monomial on every sector basis state.

    Returns (rows, cols, amplitudes): term |col> = amp |row>, entries with
    annihilated states or out-of-sector images dropped.  Rows are distinct
    (a monomial is a partial injection on basis states).
    """
    dim = basis.dim
    cur_up = basis.state_up.copy()
    cur_dn = basis.state_down.copy()
    alive = np.ones(dim, dtype=bool)
    sign = np.ones(dim, dtype=np.int8)
    for mode, dagger in reversed(term.ops):
        site, spin = divmod(mode, 2)
        arr = cur_up if spin == SPIN_UP else cur_dn
        bit = (arr >> site) & 1
        alive &= bit == (0 if dagger else 1)
        # parity of occupied modes strictly below `mode`, before acting
        if spin == SPIN_UP:
            up_mask = (1 << site) - 1
            dn_mask = (1 << site) - 1
        else:
            up_mask = (1 << (site + 1)) - 1
            dn_mask = (1 << site) - 1
        par = (
            np.bitwise_count(cur_up & np.uint32(up_mask))
            + np.bitwise_count(cur_dn & np.uint32(dn_mask))
        ) & 1
        np.negative(sign, out=sign, where=par.astype(bool))
        arr ^= np.uint32(1 << site)
    iu = basis._up_index[cur_up]
    idn = basis._down_index[cur_dn]
    alive &= (iu >= 0) & (idn >= 0)
    cols = np.nonzero(alive)[0].astype(np.int64)
    rows = iu[alive].astype(np.int64) * basis.n_down_configs + idn[alive]
    amps = term.coeff * sign[alive]
    return rows, cols, amps


def assemble_operator(
    basis: FermionBasis, terms: list[FermionTerm]
) -> sp.csr_matrix:
    """Sparse matrix of a term list on the sector basis.

    Real float64 when every coefficient is real, complex128 otherwise.
    """
    is_complex = any(abs(complex(t.coeff).imag) > 0 for t in terms)
    dtype = np.complex128 if is_complex else np.float64
    rows_l, cols_l, data_l = [], [], []
    for term in terms:
        rows, cols, amps = _term_action(basis, term)
        rows_l.append(rows)
        cols_l.append(cols)
        data_l.append(amps.astype(dtype))
    if not rows_l:
        return sp.csr_matrix((basis.dim, basis.dim), dtype=dtype)
    mat = sp.coo_matrix(
        (np.concatenate(data_l), (np.concatenate(rows_l), np.concatenate(cols_l))),
        shape=(basis.dim, basis.dim),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def apply_terms(
    basis: FermionBasis, terms: list[FermionTerm], vec: np.ndarray
) -> np.ndarray:
    """Apply a term list to a sector vector without materializing a matrix."""
    if vec.shape != (basis.dim,):
        raise ValueError("vector does not match basis dimension")
    is_complex = np.iscomplexobj(vec) or any(
        abs(complex(t.coeff).imag) > 0 for t in terms
    )
    out = np.zeros(basis.dim, dtype=np.complex128 if is_complex else np.float64)
    for term in terms:
        rows, cols, amps = _term_action(basis, term)
        # rows are distinct within one monomial, so fancy += cannot collide
        out[rows] += amps * vec[cols]
    return out
