"""Operator basis spanning the Hamiltonians we try to reconstruct.

One Hermitian element per (bond, spin) hopping bundle plus one doublon per
site: M = 2 * n_bonds + n_sites.  Ordering is load-bearing (coefficient
vectors index into it): bonds row-major horizontal then vertical, up spin
before down within each bond, doublons by site afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qsim.fermion import (
    SPIN_DOWN,
    SPIN_UP,
    FermionTerm,
    LatticeSpec,
    doublon_terms,
    hopping_terms,
)


@dataclass(frozen=True)
class BasisElement:
    label: str
    kind: str  # "hopping" | "doublon"
    terms: tuple[FermionTerm, ...]


class OperatorBasis:
    def __init__(self, lattice: LatticeSpec, elements: list[BasisElement]):
        self.lattice = lattice
        self.elements = elements

    @property
    def m(self) -> int:
        return len(self.elements)

    def labels(self) -> list[str]:
        return [e.label for e in self.elements]

    def coefficient_vector(self) -> np.ndarray:
        """Hubbard coefficients in basis order: -J on hoppings, U on doublons."""
        lat = self.lattice
        return np.array(
            [-lat.j if e.kind == "hopping" else lat.u for e in self.elements], dtype=float
        )

    def __repr__(self) -> str:
        return f"OperatorBasis({self.lattice.rows}x{self.lattice.cols}, M={self.m})"


def build_operator_basis(lattice: LatticeSpec) -> OperatorBasis:
    elements: list[BasisElement] = []
    for i, j in lattice.bonds():
        for spin in (SPIN_UP, SPIN_DOWN):
            s = "u" if spin == SPIN_UP else "d"
            elements.append(
                BasisElement(
                    label=f"hop[{i},{j}]{s}",
                    kind="hopping",
                    terms=tuple(hopping_terms(i, j, spin)),
                )
            )
    for site in range(lattice.n_sites):
        elements.append(
            BasisElement(
                label=f"dbl[{site}]",
                kind="doublon",
                terms=tuple(doublon_terms(site)),
            )
        )
    return OperatorBasis(lattice, elements)
