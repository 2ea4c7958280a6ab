"""Coefficient recovery from K via the smallest right singular vector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kmatrix import KMatrix

DEGENERACY_RTOL = 1e-12


def _sign_gauge(v: np.ndarray) -> np.ndarray:
    """Fix the overall sign: the largest-magnitude entry is made positive."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v.copy()


@dataclass
class LearnResult:
    coefficients: np.ndarray  # unit norm, sign-gauged
    singular_values: np.ndarray  # descending, zero-padded to length M
    correlation_spectrum: np.ndarray  # eigenvalues of K^T K, ascending
    gap: float  # lambda_2 - lambda_1 of K^T K
    degenerate: bool
    candidates: list[np.ndarray]  # smallest vector, plus runner-up if degenerate
    provenance: dict = field(default_factory=dict)


def reconstruct(kmatrix: KMatrix) -> LearnResult:
    """Solve K c = 0 in the least-squares sense.

    The reconstruction is the right singular vector of the smallest singular
    value, unit-normalized with a deterministic sign gauge.  When the two
    smallest eigenvalues of K^T K are closer than ``DEGENERACY_RTOL`` times
    the largest, the solution is flagged non-unique and both candidate
    vectors are reported.
    """
    k = np.asarray(kmatrix.values, dtype=float)
    if k.ndim != 2 or k.size == 0:
        raise ValueError("K must be a non-empty 2-d matrix")
    m = k.shape[1]
    if not np.any(k):
        raise ValueError("K is identically zero; no constraint information")
    _, s, vh = np.linalg.svd(k, full_matrices=True)
    sig = np.zeros(m)
    sig[: len(s)] = s  # rows < columns leave exact null directions
    spectrum = np.sort(sig**2)
    lam_max = spectrum[-1]
    gap = float(spectrum[1] - spectrum[0]) if m > 1 else float("inf")
    degenerate = m > 1 and gap < DEGENERACY_RTOL * lam_max
    v1 = _sign_gauge(vh[m - 1])
    candidates = [v1]
    if degenerate:
        candidates.append(_sign_gauge(vh[m - 2]))
    return LearnResult(
        coefficients=v1,
        singular_values=np.sort(sig)[::-1],
        correlation_spectrum=spectrum,
        gap=gap,
        degenerate=degenerate,
        candidates=candidates,
        provenance={
            "mode": kmatrix.mode,
            "shots_per_entry": kmatrix.shots_per_entry,
            "n_constraints": k.shape[0],
        },
    )


def parameter_distance(c_a: np.ndarray, c_b: np.ndarray) -> float:
    """|| a_hat -+ b_hat || minimized over the global sign, unit-normalized."""
    a = np.asarray(c_a, dtype=float)
    b = np.asarray(c_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("coefficient vectors differ in length")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-300 or nb < 1e-300:
        raise ValueError("cannot normalize a zero coefficient vector")
    a = a / na
    b = b / nb
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))
