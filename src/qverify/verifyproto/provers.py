"""Prover strategies for delegated energy verification.

A prover exposes ``open_round(table, qubit, other_ops, rng)`` and returns
a session carrying the announced image ``image`` plus the two reveal
methods of ``protocol.HonestSession``.  ``protocol.play_round`` plays
every round.  Provers of a fixed state draw from a ``protocol.BornMemo``,
so a round commits the state only on a memo miss.
"""

from __future__ import annotations

import numpy as np

from ..qsim import QuantumState, QubitBasis
from .protocol import BornMemo, HonestSession


class HonestProver:
    """Runs the delegation instructions faithfully on a fixed pure state."""

    session_class = HonestSession

    def __init__(self, state: QuantumState):
        state.validate()
        self.state = state
        self._memo = BornMemo(state)

    def _committed_table(self, table):
        return table

    def open_round(self, table, qubit, other_ops, rng) -> HonestSession:
        table = self._committed_table(table)
        return self.session_class(self._memo, table, qubit, other_ops, rng)


class MixedStateProver:
    """Commits a fresh uniformly random computational basis state per round.

    This is the classical ensemble realizing the maximally mixed state:
    every marginal the verifier ever sees matches a prover holding I/2^n.
    """

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits

    def open_round(self, table, qubit, other_ops, rng) -> HonestSession:
        vec = np.zeros(1 << self.num_qubits, dtype=complex)
        vec[int(rng.integers(vec.size))] = 1.0
        state = QuantumState(vec, QubitBasis(self.num_qubits))
        return HonestProver(state).open_round(table, qubit, other_ops, rng)


class _BasisGuessSession(HonestSession):
    def reveal_measurement(self) -> tuple[tuple[int, int], tuple[int, ...]]:
        # measures the committed registers in Z anyway, then invents the
        # X outcomes it was asked for
        bits = self._sample(((self._qubit, "z"), (self._preimage, "z")) + self._other_ops)
        fabricated = (int(self._rng.integers(2)), int(self._rng.integers(2)))
        return fabricated, bits[2:]


class BasisGuessProver(HonestProver):
    """Cheater that prepares and tests honestly but fabricates X data.

    In measurement rounds it measures the committed registers in Z and
    reports uniformly random (u, v).  Decoding of one-to-one keys ignores
    (u, v), so Z-delegated statistics survive; X-delegated outcomes
    collapse to coin flips.
    """

    session_class = _BasisGuessSession


class WrongTableProver(HonestProver):
    """Cheater that commits with a corrupted copy of the announced table.

    Every image bit is flipped, so honestly opened test rounds can never
    satisfy the verifier's consistency check.
    """

    def _committed_table(self, table):
        return tuple(int(t) ^ 1 for t in table)
