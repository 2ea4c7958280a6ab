"""Measurement delegation through committed registers.

One round works on a fresh copy of the prover's state: the target qubit is
entangled with a preimage qubit and a two-qubit image register according
to a public function table, the image register is measured and announced,
and the round then either opens the committed registers in Z (consistency
test against the table) or measures them in X so the privately held
inverse data can be turned into the delegated outcome.  Each prover keeps
the Born distributions of these steps in one ``BornMemo``, keyed by the
register pattern a round is played on, so a round commits its register
only when the memo misses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..qsim import QuantumState, QubitBasis
from ..qsim.qubit import HADAMARD
from ..rng import make_rng
from .functions import ONE_TO_ONE, TrapdoorKey, key_family

TEST_ROUND = "test"
MEASUREMENT_ROUND = "measurement"


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


def commit(state: QuantumState, qubit: int, table) -> QuantumState:
    """Entangle ``qubit`` with fresh preimage/image registers per ``table``.

    Maps sum_z c_z |z> to (1/sqrt 2) sum_{z,x} c_z |z>|x>|table[2*b_z + x]>
    where b_z is the target qubit's bit.  Other qubits are untouched.  The
    committed state has n + 3 qubits: the n system qubits keep indices
    0..n-1, the preimage qubit x sits at n and the two image qubits at n+1
    (high bit of y) and n+2, so a basis index reads (system bits, x, y).
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
    # amp axes: (qubits before the target, b, qubits after it); out appends (x, y)
    amp = (np.asarray(state.data, dtype=complex) / np.sqrt(2.0)).reshape(1 << qubit, 2, -1)
    out = np.zeros(amp.shape + (2, 4), dtype=complex)
    for b, x in itertools.product((0, 1), (0, 1)):
        out[:, b, :, x, tab[2 * b + x]] = amp[:, b, :]
    return QuantumState(out.reshape(-1), QubitBasis(n + 3))


# Byte budget of the CDFs one BornMemo keeps; an entry that would pass it
# is computed for its round and not kept.
MEMO_BYTES = 32 << 20


def _image_probabilities(committed: QuantumState) -> np.ndarray:
    probs = (np.abs(committed.data.reshape(-1, 4)) ** 2).sum(axis=0)
    return probs / probs.sum()


def _collapse(committed: QuantumState, y: int) -> QuantumState:
    residual = committed.data.reshape(-1, 4)[:, y]
    residual = residual / np.linalg.norm(residual)
    return QuantumState(residual, QubitBasis(committed.num_qubits - 2))


def _outcome_probabilities(state: QuantumState, ops) -> np.ndarray:
    units: list[np.ndarray | None] = [None] * state.num_qubits
    for q, basis in ops:
        if basis == "x":
            units[q] = HADAMARD
        elif basis != "z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
    rotated = state.rotated(units) if any(u is not None for u in units) else state
    return rotated.probabilities()


def born_cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(p.size, p=p)`` builds for a scalar draw:
    one ``random()`` double searched in it with ``side="right"`` is the
    index ``choice`` returns."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


class BornMemo:
    """Born CDFs of the rounds one prover plays.

    ``register(pattern)`` returns the system state a round with ``pattern``
    is played on, and the pattern leads every key.  An image CDF is keyed
    by (pattern, committed table, qubit).  An outcome CDF is keyed by
    (pattern, qubit, preimage class of the image, ops), the class being the
    inputs k with table[k] == y: the collapsed residual keeps |z, x> exactly
    when 2*b_z + x lies in it, so every table with that class gives the same
    residual bit for bit.  A CDF is stored at its nonzero-probability
    positions only, where a right-sided search always lands, so draws equal
    ``Generator.choice`` on the full vector.  Entries are kept while their
    bytes fit in ``MEMO_BYTES``.  A miss commits the register with
    ``commit``; consecutive misses of one (pattern, table, qubit) share it.
    """

    def __init__(self, register):
        self.register = register
        self.nbytes = 0
        self._cdfs: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._committed: tuple | None = None

    def _commit(self, pattern, table, qubit) -> QuantumState:
        key = (pattern, table, qubit)
        if self._committed is None or self._committed[0] != key:
            self._committed = (key, commit(self.register(pattern), qubit, table))
        return self._committed[1]

    def _draw(self, key, probabilities, rng) -> int:
        entry = self._cdfs.get(key)
        if entry is None:
            p = probabilities()
            pos = p.nonzero()[0]
            entry = (pos, born_cdf(p)[pos])
            size = pos.nbytes + entry[1].nbytes
            if self.nbytes + size <= MEMO_BYTES:
                self._cdfs[key] = entry
                self.nbytes += size
        pos, cdf = entry
        return int(pos[cdf.searchsorted(rng.random(), side="right")])

    def image(self, pattern, table, qubit, rng) -> int:
        """Draw the announced image of a round committed with ``table``."""
        return self._draw(
            (pattern, table, qubit),
            lambda: _image_probabilities(self._commit(pattern, table, qubit)),
            rng,
        )

    def sample(self, pattern, table, qubit, y, ops, rng) -> int:
        """Jointly sample ``ops`` (qubit, 'x'|'z') on the residual of image
        ``y`` in one Born draw; returns the joint outcome index."""
        preimages = tuple(k for k in range(4) if table[k] == y)
        return self._draw(
            (pattern, qubit, preimages, ops),
            lambda: _outcome_probabilities(_collapse(self._commit(pattern, table, qubit), y), ops),
            rng,
        )


class HonestSession:
    """One faithfully played round after the image announcement.

    The image register is measured on construction; the round kind is only
    disclosed through which reveal method gets called, mirroring the
    message order of the interaction: the prover commits and announces the
    image before learning whether it is being tested.  The round is played
    on the ``n``-qubit register of ``pattern`` and draws from ``memo``, so
    it commits the register only on a memo miss.  ``other_ops`` lists
    (qubit, basis) pairs measured directly in measurement rounds.
    """

    def __init__(self, memo: BornMemo, pattern, n, table, qubit, other_ops, rng):
        self._memo, self._pattern, self._table = memo, pattern, tuple(table)
        self._qubit, self._preimage, self._rng = qubit, n, rng
        self._other_ops = tuple(tuple(op) for op in other_ops)
        self.image = memo.image(pattern, self._table, qubit, rng)

    def _sample(self, ops) -> tuple[int, ...]:
        i = self._memo.sample(self._pattern, self._table, self._qubit, self.image, ops, self._rng)
        return tuple((i >> (self._preimage - q)) & 1 for q, _ in ops)

    def reveal_test(self) -> tuple[int, int]:
        """Open the committed registers in Z."""
        return self._sample(((self._qubit, "z"), (self._preimage, "z")))

    def reveal_measurement(self) -> tuple[tuple[int, int], tuple[int, ...]]:
        """X outcomes of the committed registers plus direct outcomes.

        Everything is drawn in a single joint Born sample so correlations
        between the delegated qubit and the directly measured ones are
        exact.
        """
        bits = self._sample(((self._qubit, "x"), (self._preimage, "x")) + self._other_ops)
        return (bits[0], bits[1]), bits[2:]


def play_round(
    prover, key: TrapdoorKey, kind: str, qubit: int, other_ops, rng
) -> tuple[ProtocolTranscript, tuple[int, ...]]:
    """Play one delegation round of ``kind`` on ``qubit`` against ``prover``.

    The prover commits with the key's table and announces its image before
    it is asked for the one reveal the kind needs.  A test round opens the
    committed registers in Z and checks them against the table.  A
    measurement round collects the X outcomes and the direct outcomes of
    ``other_ops``; an announced image with no preimage is cheating evidence
    on its own (verdict False), otherwise the delegated outcome is decoded.
    The prover draws only from ``rng``.  Returns the transcript and the
    direct outcomes.
    """
    if kind not in (TEST_ROUND, MEASUREMENT_ROUND):
        raise ValueError(f"unknown round type {kind!r}")
    session = prover.open_round(key.table, qubit, other_ops, rng)
    y = int(session.image)
    verdict = decoded = None
    if kind == TEST_ROUND:
        outcomes, direct = session.reveal_test(), ()
        verdict = key.apply(*outcomes) == y
    else:
        outcomes, direct = session.reveal_measurement()
        if key.in_image(y):
            decoded = decode(key, y, outcomes)
        else:
            verdict = False
    return ProtocolTranscript(kind, key.label, y, outcomes, verdict, decoded), direct


def decode(key: TrapdoorKey, image: int, outcomes: tuple[int, int]) -> int:
    """Delegated outcome bit of a measurement round's image and X outcomes (u, v).

    One-to-one keys: the announced image determines (b, x) by inversion
    and the outcome is b; the reported X outcomes are discarded.
    Two-to-one keys: with branch preimages (x0, x1) of the image, the
    outcome is u XOR (v AND (x0 XOR x1)).
    """
    if key.kind == ONE_TO_ONE:
        b, _ = key.invert(image)
        return b
    x0, x1 = key.preimages(image)  # raises on corrupted image
    u, v = outcomes
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


def _round_atoms(state: QuantumState, key: TrapdoorKey, round_type: str) -> np.ndarray:
    """Exact joint outcome probabilities, indexed [y, bit1, bit2].

    bit1/bit2 are the system and preimage register outcomes: Z-basis for
    test rounds, X-basis for measurement rounds.
    """
    vec = commit(state, 0, key.table).data.reshape(2, 2, 4)
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
            yield p, decode(key, y, (b1, b2))
        else:
            yield p, key.apply(b1, b2) == y


def key_decoded_distribution(state: QuantumState, key: TrapdoorKey) -> np.ndarray:
    """Exact decoded-outcome distribution of measurement rounds, one key."""
    out = np.zeros(2)
    for p, bit in _atom_outcomes(state, key, MEASUREMENT_ROUND):
        out[bit] += p
    return out


def decoded_distribution(state: QuantumState, basis: str) -> np.ndarray:
    """Exact decoded distribution averaged over the matching key family."""
    keys = key_family(basis)
    out = np.zeros(2)
    for key in keys:
        out += key_decoded_distribution(state, key)
    return out / len(keys)


def delegate_rounds(
    state: QuantumState,
    basis: str,
    n_rounds: int,
    seed: int,
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
    keys = key_family(basis)
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
    )
