"""Measurement settings: per-qubit local unitaries shared across devices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import make_rngs
from .cliffords import CLIFFORD_TABLE, NUM_CLIFFORDS, phase_normalize

UNITARITY_ATOL = 1e-10
MATRIX_MATCH_ATOL = 1e-12


@dataclass(frozen=True)
class MeasurementSetting:
    """One round of local rotations: a Clifford index or an explicit matrix per qubit.

    Explicit matrices are stored phase-normalized so that cross-device
    comparison can be done entrywise.
    """

    setting_id: int
    clifford_indices: tuple[int, ...] | None = None
    matrices: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if (self.clifford_indices is None) == (self.matrices is None):
            raise ValueError("exactly one of clifford_indices / matrices required")
        if self.clifford_indices is not None:
            for i in self.clifford_indices:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"Clifford index {i!r} is not an integer")
                if not 0 <= i < NUM_CLIFFORDS:
                    raise ValueError(f"Clifford index {i} out of range")
        else:
            norm = []
            for m in self.matrices:
                m = np.asarray(m, dtype=complex)
                if m.shape != (2, 2):
                    raise ValueError("explicit settings must be 2x2 matrices")
                if not np.allclose(m @ m.conj().T, np.eye(2), atol=UNITARITY_ATOL):
                    raise ValueError("explicit setting matrix is not unitary")
                m = phase_normalize(m)
                m.setflags(write=False)
                norm.append(m)
            object.__setattr__(self, "matrices", tuple(norm))

    @property
    def num_qubits(self) -> int:
        if self.clifford_indices is not None:
            return len(self.clifford_indices)
        return len(self.matrices)

    def unitaries(self) -> list[np.ndarray]:
        if self.clifford_indices is not None:
            return [CLIFFORD_TABLE[i] for i in self.clifford_indices]
        return list(self.matrices)

    def restricted(self, qubits: tuple[int, ...]) -> "MeasurementSetting":
        """The same setting viewed on a subset of qubits (order preserved)."""
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} outside register")
        if self.clifford_indices is not None:
            return MeasurementSetting(
                self.setting_id,
                clifford_indices=tuple(self.clifford_indices[q] for q in qubits),
            )
        return MeasurementSetting(
            self.setting_id, matrices=tuple(self.matrices[q] for q in qubits)
        )

    def matches(self, other: "MeasurementSetting", qubits: tuple[int, ...] | None = None) -> bool:
        """Cross-device agreement: exact for Clifford indices, entrywise for matrices."""
        a = self if qubits is None else self.restricted(qubits)
        b = other if qubits is None else other.restricted(qubits)
        if a.num_qubits != b.num_qubits:
            return False
        if a.clifford_indices is not None and b.clifford_indices is not None:
            return a.clifford_indices == b.clifford_indices
        ua, ub = a.unitaries(), b.unitaries()
        return all(
            np.allclose(phase_normalize(x), phase_normalize(y), atol=MATRIX_MATCH_ATOL)
            for x, y in zip(ua, ub)
        )


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar draw via QR of a complex Ginibre matrix with phase-fixed R diagonal."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sample_settings(
    num_qubits: int,
    n_settings: int,
    seed: int,
    ensemble: str = "clifford",
) -> list[MeasurementSetting]:
    """Independent per-qubit draws, one setting per derived stream.

    Setting u is drawn from its own stream, so a longer run extends a
    shorter one with the same seed instead of reshuffling it.
    """
    if n_settings < 1:
        raise ValueError("need at least one setting")
    if ensemble not in ("clifford", "haar"):
        raise ValueError(f"unknown ensemble {ensemble!r}")
    out: list[MeasurementSetting] = []
    for u, rng in enumerate(make_rngs(seed, "setting", indices=range(n_settings))):
        if ensemble == "clifford":
            idx = tuple(int(i) for i in rng.integers(0, NUM_CLIFFORDS, size=num_qubits))
            out.append(MeasurementSetting(u, clifford_indices=idx))
        else:
            mats = tuple(haar_unitary(rng) for _ in range(num_qubits))
            out.append(MeasurementSetting(u, matrices=mats))
    return out
