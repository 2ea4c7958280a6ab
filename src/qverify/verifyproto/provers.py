"""Prover strategies for delegated energy verification.

A prover exposes ``open_round(table, qubit, other_ops, rng)`` and returns
a session carrying the announced image ``image`` plus the two reveal
methods of ``protocol.HonestSession``.  ``protocol.play_round`` plays
every round.  Each prover draws from one ``protocol.BornMemo``, whose
register function closes over the prover's state but never over the
prover itself, so a round commits a register only on a memo miss and the
memo goes with its prover.
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
        self._memo = BornMemo(lambda _: state)

    def _committed_table(self, table):
        return table

    def open_round(self, table, qubit, other_ops, rng) -> HonestSession:
        table = self._committed_table(table)
        n = self.state.num_qubits
        return self.session_class(self._memo, (), n, table, qubit, other_ops, rng)


def _basis_state(bits: tuple[int, ...]) -> QuantumState:
    """|bits>, the first bit on qubit 0."""
    vec = np.zeros(1 << len(bits), dtype=complex)
    vec[int("".join(map(str, bits)), 2)] = 1.0
    return QuantumState(vec, QubitBasis(len(bits)))


class MixedStateProver:
    """Commits a fresh uniformly random computational basis state per round.

    This is the classical ensemble realizing the maximally mixed state:
    every marginal the verifier ever sees matches a prover holding I/2^n.
    A basis state is a product, so a round's draws depend only on the bits
    of the qubits it reads, R = {qubit} and the qubits of ``other_ops``.
    The round is played on |s_R>, those bits in qubit order; s_R is the
    round's pattern in the memo, and a miss rebuilds |s_R>.
    """

    def __init__(self, num_qubits: int):
        if num_qubits > 63:
            raise ValueError("the mixed prover draws its basis state as one int64: at most 63 qubits")
        self.num_qubits = num_qubits
        self._memo = BornMemo(_basis_state)

    def open_round(self, table, qubit, other_ops, rng) -> HonestSession:
        n = self.num_qubits
        s = int(rng.integers(1 << n))
        read = sorted({qubit, *(q for q, _ in other_ops)})
        at = {q: i for i, q in enumerate(read)}
        bits = tuple((s >> (n - 1 - q)) & 1 for q in read)
        ops = tuple((at[q], basis) for q, basis in other_ops)
        return HonestSession(self._memo, bits, len(read), table, at[qubit], ops, rng)


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
