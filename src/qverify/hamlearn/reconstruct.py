"""Coefficient recovery from K via its null space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import INDEPENDENCE_TOL


def _sign_gauge(v: np.ndarray) -> np.ndarray:
    """Fix the overall sign: the largest-magnitude entry is made positive."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v.copy()


@dataclass
class LearnResult:
    coefficients: np.ndarray  # unit norm, sign-gauged
    singular_values: np.ndarray  # descending, zero-padded to length M
    gap: float  # lambda_2 - lambda_1 of K^T K
    null_space: np.ndarray  # (d, M) orthonormal rows spanning the recovered solutions


def reconstruct(k: np.ndarray) -> LearnResult:
    """Solve K c = 0 in the least-squares sense for an (n_constraints, M) K.

    The reconstruction is the right singular vector of the smallest singular
    value, unit-normalized with a deterministic sign gauge.  The null space
    holds every right singular vector whose eigenvalue of K^T K exceeds the
    smallest by at most ``INDEPENDENCE_TOL``^2 times the largest: a direction
    is null exactly when selection would call a row along it dependent.  It
    always holds the reconstruction, and the exact null directions of a K
    with fewer rows than columns; the solution is unique when it is 1-d.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.size == 0:
        raise ValueError("K must be a non-empty 2-d matrix")
    m = k.shape[1]
    if not np.any(k):
        raise ValueError("K is identically zero; no constraint information")
    _, s, vh = np.linalg.svd(k, full_matrices=True)
    sig = np.zeros(m)
    sig[: len(s)] = s  # rows < columns leave exact null directions
    lam = sig**2  # descending, aligned with the rows of vh
    gap = float(lam[m - 2] - lam[m - 1]) if m > 1 else float("inf")
    null = lam - lam[m - 1] <= INDEPENDENCE_TOL**2 * lam[0]
    return LearnResult(
        coefficients=_sign_gauge(vh[m - 1]),
        singular_values=sig,
        gap=gap,
        null_space=vh[null],
    )


def _unit(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    nc = np.linalg.norm(c)
    if nc < 1e-300:
        raise ValueError("cannot normalize a zero coefficient vector")
    return c / nc


def parameter_distance(c_a: np.ndarray, c_b: np.ndarray) -> float:
    """|| a_hat -+ b_hat || minimized over the global sign, unit-normalized."""
    a, b = _unit(c_a), _unit(c_b)
    if a.shape != b.shape:
        raise ValueError("coefficient vectors differ in length")
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def solution_distance(c_true: np.ndarray, result: LearnResult) -> float:
    """Distance from the normalized true couplings to the recovered null space.

    A unique solution gives the sign-gauged ``parameter_distance`` to the
    coefficients.  Otherwise K leaves a whole span of coupling vectors
    stationary (the two-site dimer's does, and so does any K of fewer than
    M-1 independent rows), and the error is the norm of the truth's
    component orthogonal to that span.
    """
    n = result.null_space
    if len(n) == 1:
        return parameter_distance(c_true, result.coefficients)
    c = _unit(c_true)
    return float(np.linalg.norm(c - n.T @ (n @ c)))
