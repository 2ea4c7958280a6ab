"""Hamiltonian reconstruction from stationary-state constraint equations."""

from .opbasis import BasisElement, OperatorBasis, build_operator_basis
from .constraints import (
    ConstraintOp,
    ConstraintSet,
    enumerate_candidates,
    build_constraints,
)
from .kmatrix import KRowEngine, KSampler, k_matrix_exact
from .reconstruct import LearnResult, reconstruct, parameter_distance, solution_distance
from .curves import CurvePoint, learning_curve

__all__ = [
    "BasisElement",
    "OperatorBasis",
    "build_operator_basis",
    "ConstraintOp",
    "ConstraintSet",
    "enumerate_candidates",
    "build_constraints",
    "KRowEngine",
    "KSampler",
    "k_matrix_exact",
    "LearnResult",
    "reconstruct",
    "parameter_distance",
    "solution_distance",
    "CurvePoint",
    "learning_curve",
]
