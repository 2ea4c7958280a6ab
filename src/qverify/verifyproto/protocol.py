"""Measurement delegation through committed registers.

One round works on a fresh copy of the prover's state: the target qubit is
entangled with a preimage qubit and a two-qubit image register according
to a public function table, the image register is measured and announced,
and the round then either opens the committed registers in Z (consistency
test against the table) or measures them in X so the privately held
inverse data can be turned into the delegated outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from ..qsim import QuantumState, QubitBasis
from ..qsim.qubit import HADAMARD
from ..rng import make_rng
from .functions import ONE_TO_ONE, TrapdoorKey, enumerate_functions

TEST_ROUND = "test"
MEASUREMENT_ROUND = "measurement"


@dataclass(frozen=True)
class CommittedState:
    """System state with one qubit entangled into fresh registers.

    Qubit layout: the n system qubits keep indices 0..n-1; the preimage
    qubit sits at n; the two image qubits at n+1 (high bit) and n+2 (low
    bit), so a basis index reads (system bits, x, y).
    """

    state: QuantumState
    system_qubit: int
    preimage_qubit: int
    image_qubits: tuple[int, int]
    table: tuple[int, int, int, int]


@dataclass(frozen=True)
class ProtocolTranscript:
    """Record of one delegation round.

    ``outcomes`` holds (b, x) for test rounds and (u, v) for measurement
    rounds.  ``verdict`` is the test-round consistency check; ``decoded``
    is filled once the private inversion data has been applied.
    """

    round_type: str
    key_label: str
    image: int
    outcomes: tuple[int, int]
    verdict: bool | None
    decoded: int | None
    seed: int | None


def commit(state: QuantumState, qubit: int, table) -> CommittedState:
    """Entangle ``qubit`` with fresh preimage/image registers per ``table``.

    Maps sum_z c_z |z> to (1/sqrt 2) sum_{z,x} c_z |z>|x>|table[2*b_z + x]>
    where b_z is the target qubit's bit.  Other qubits are untouched.
    """
    if not state.is_pure:
        raise ValueError("commitment needs a pure state vector")
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(
            f"target qubit {qubit} collides with appended registers "
            f"(system qubits are 0..{n - 1})"
        )
    tab = tuple(int(t) for t in table)
    if len(tab) != 4 or any(not 0 <= t < 4 for t in tab):
        raise ValueError("table must map the four inputs into 0..3")
    vec = np.asarray(state.data, dtype=complex)
    idx = np.arange(vec.size)
    b = (idx >> (n - 1 - qubit)) & 1
    out = np.zeros(vec.size * 8, dtype=complex)
    amp = vec / np.sqrt(2.0)
    tarr = np.asarray(tab)
    for x in (0, 1):
        y = tarr[2 * b + x]
        out[idx * 8 + 4 * x + y] = amp
    return CommittedState(
        state=QuantumState(out, QubitBasis(n + 3)),
        system_qubit=qubit,
        preimage_qubit=n,
        image_qubits=(n + 1, n + 2),
        table=tab,
    )


def commit_measure_image(
    committed: CommittedState, rng: np.random.Generator
) -> tuple[int, QuantumState]:
    """Born-sample the image register; return (y, collapsed remainder).

    The remainder keeps the n system qubits plus the preimage qubit at
    index n; the measured image register is dropped.
    """
    blocks = committed.state.data.reshape(-1, 4)
    probs = (np.abs(blocks) ** 2).sum(axis=0)
    probs = probs / probs.sum()
    y = int(rng.choice(4, p=probs))
    residual = blocks[:, y]
    residual = residual / np.linalg.norm(residual)
    n_rest = committed.state.num_qubits - 2
    return y, QuantumState(residual, QubitBasis(n_rest))


def sample_bits(state: QuantumState, ops, rng: np.random.Generator) -> tuple[int, ...]:
    """Jointly sample the listed qubits, each in its own basis.

    ``ops`` is a sequence of (qubit, 'x'|'z') pairs.  All qubits are
    measured in one Born draw and the listed bits are read off, so the
    returned tuple follows the exact joint marginal.
    """
    n = state.num_qubits
    units: list[np.ndarray | None] = [None] * n
    for q, basis in ops:
        if basis == "x":
            units[q] = HADAMARD
        elif basis != "z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
    rotated = state.rotated(units) if any(u is not None for u in units) else state
    p = rotated.probabilities()
    i = int(rng.choice(p.size, p=p))
    return tuple((i >> (n - 1 - q)) & 1 for q, _ in ops)


class HonestSession:
    """One faithfully played round after the image announcement.

    The image register is measured on construction; the round kind is only
    disclosed through which reveal method gets called, mirroring the
    message order of the interaction: the prover commits and announces the
    image before learning whether it is being tested.  ``other_ops`` lists
    (qubit, basis) pairs measured directly in measurement rounds.
    """

    def __init__(self, committed: CommittedState, other_ops, rng):
        self.image, self._residual = commit_measure_image(committed, rng)
        self._qubit = committed.system_qubit
        self._preimage = committed.preimage_qubit
        self._other_ops = tuple(other_ops)
        self._rng = rng

    def reveal_test(self) -> tuple[int, int]:
        """Open the committed registers in Z."""
        return sample_bits(
            self._residual, [(self._qubit, "z"), (self._preimage, "z")], self._rng
        )

    def reveal_measurement(self) -> tuple[tuple[int, int], tuple[int, ...]]:
        """X outcomes of the committed registers plus direct outcomes.

        Everything is drawn in a single joint Born sample so correlations
        between the delegated qubit and the directly measured ones are
        exact.
        """
        ops = [(self._qubit, "x"), (self._preimage, "x")] + list(self._other_ops)
        bits = sample_bits(self._residual, ops, self._rng)
        return (bits[0], bits[1]), tuple(bits[2:])


def finish_round(
    kind: str, key: TrapdoorKey, session, seed: int | None = None
) -> tuple[ProtocolTranscript, tuple[int, ...]]:
    """Verifier side of one round once the prover has announced its image.

    Test rounds open the committed registers in Z and check them against
    the key's table.  Measurement rounds collect the X outcomes and the
    direct outcomes; an announced image with no preimage is cheating
    evidence on its own (verdict False), otherwise the delegated outcome is
    decoded.  Returns the transcript and the direct outcomes.
    """
    y = int(session.image)
    if kind == TEST_ROUND:
        b, x = session.reveal_test()
        verdict = key.table[2 * b + x] == y
        return ProtocolTranscript(kind, key.label, y, (b, x), verdict, None, seed), ()
    if kind != MEASUREMENT_ROUND:
        raise ValueError(f"unknown round type {kind!r}")
    (u, v), direct = session.reveal_measurement()
    transcript = ProtocolTranscript(kind, key.label, y, (int(u), int(v)), None, None, seed)
    if not key.in_image(y):
        return replace(transcript, verdict=False), direct
    return replace(transcript, decoded=decode(transcript, key)), direct


def decode(transcript: ProtocolTranscript, key: TrapdoorKey) -> int:
    """Turn a measurement-round transcript into the delegated outcome bit.

    One-to-one keys: the announced image determines (b, x) by inversion
    and the outcome is b; the reported X outcomes are discarded.
    Two-to-one keys: with branch preimages (x0, x1) of the image, the
    outcome is u XOR (v AND (x0 XOR x1)).
    """
    if transcript.round_type != MEASUREMENT_ROUND:
        raise ValueError("decode requires a measurement-round transcript")
    if key.kind == ONE_TO_ONE:
        b, _ = key.invert(transcript.image)
        return b
    x0, x1 = key.preimages(transcript.image)  # raises on corrupted image
    u, v = transcript.outcomes
    return u ^ (v & (x0 ^ x1))


@dataclass(frozen=True)
class DelegationSummary:
    """Aggregate of many single-qubit delegation rounds."""

    basis: str
    round_type: str
    n_rounds: int
    decoded_counts: dict[int, int] | None
    n_pass: int | None
    n_fail: int | None
    seed: int | None


def _round_atoms(state: QuantumState, key: TrapdoorKey, round_type: str) -> np.ndarray:
    """Exact joint outcome probabilities, indexed [y, bit1, bit2].

    bit1/bit2 are the system and preimage register outcomes: Z-basis for
    test rounds, X-basis for measurement rounds.
    """
    committed = commit(state, 0, key.table)
    vec = committed.state.data.reshape(2, 2, 4)
    atoms = np.empty((4, 2, 2))
    for y in range(4):
        block = vec[:, :, y]
        if round_type == MEASUREMENT_ROUND:
            block = HADAMARD @ block @ HADAMARD
        atoms[y] = np.abs(block) ** 2
    return atoms


def _atom_outcomes(state: QuantumState, key: TrapdoorKey, round_type: str):
    """Nonzero-probability atoms of one round as (probability, outcome).

    The outcome is the decoded bit of a measurement round and the verdict
    of a test round.
    """
    atoms = _round_atoms(state, key, round_type)
    for y, b1, b2 in itertools.product(range(4), (0, 1), (0, 1)):
        p = atoms[y, b1, b2]
        if p <= 0.0:
            continue
        if round_type == MEASUREMENT_ROUND:
            t = ProtocolTranscript(round_type, key.label, y, (b1, b2), None, None, None)
            yield p, decode(t, key)
        else:
            yield p, key.table[2 * b1 + b2] == y


def key_decoded_distribution(state: QuantumState, key: TrapdoorKey) -> np.ndarray:
    """Exact decoded-outcome distribution of measurement rounds, one key."""
    out = np.zeros(2)
    for p, bit in _atom_outcomes(state, key, MEASUREMENT_ROUND):
        out[bit] += p
    return out


def decoded_distribution(state: QuantumState, basis: str) -> np.ndarray:
    """Exact decoded distribution averaged over the matching key family."""
    ones, twos = enumerate_functions()
    keys = ones if basis.lower() == "z" else twos
    out = np.zeros(2)
    for key in keys:
        out += key_decoded_distribution(state, key)
    return out / len(keys)


def delegate_rounds(
    state: QuantumState,
    basis: str,
    n_rounds: int,
    seed: int | None = None,
    round_type: str = MEASUREMENT_ROUND,
) -> DelegationSummary:
    """Run many independent rounds on a single-qubit state.

    Keys are drawn uniformly from the family matching ``basis``.  The
    joint law of (key, image, register outcomes) factorizes over rounds,
    so the whole batch is one multinomial draw over exact per-atom
    probabilities; statistics are identical to a round-by-round loop.
    """
    if state.num_qubits != 1:
        raise ValueError("delegation driver expects a single-qubit state")
    if round_type not in (TEST_ROUND, MEASUREMENT_ROUND):
        raise ValueError(f"unknown round type {round_type!r}")
    ones, twos = enumerate_functions()
    keys = ones if basis.lower() == "z" else twos
    atoms = [
        (p / len(keys), outcome)
        for key in keys
        for p, outcome in _atom_outcomes(state, key, round_type)
    ]
    pvec = np.array([p for p, _ in atoms])
    pvec = pvec / pvec.sum()
    rng = make_rng(seed, "delegate", basis.lower(), round_type)
    counts = rng.multinomial(n_rounds, pvec)

    decoded_counts = n_pass = n_fail = None
    if round_type == MEASUREMENT_ROUND:
        decoded_counts = {0: 0, 1: 0}
        for c, (_, bit) in zip(counts, atoms):
            decoded_counts[bit] += int(c)
    else:
        n_pass = int(sum(c for c, (_, ok) in zip(counts, atoms) if ok))
        n_fail = n_rounds - n_pass
    return DelegationSummary(
        basis=basis.lower(),
        round_type=round_type,
        n_rounds=n_rounds,
        decoded_counts=decoded_counts,
        n_pass=n_pass,
        n_fail=n_fail,
        seed=seed,
    )
