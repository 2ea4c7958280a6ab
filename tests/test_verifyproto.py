"""Delegated-measurement protocol: trapdoor tables, commitment rounds,
history-state instances, and interactive energy verification.

Oracles are exact statevector enumerations (outcome atoms of a round) and
dense diagonalization.  The X-basis decoding rule is gated on an
exhaustive check against Born statistics for every claw key before any
sampled test relies on it.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from oracle_helpers import kron_chain
from qverify.qsim import (
    PauliTerm,
    QuantumState,
    QubitBasis,
    assemble_pauli_operator,
)
from qverify.qsim.qubit import reduced_density
from qverify.qsim.state import plus_state, random_pure_state, theta_state, zero_state
from qverify.rng import make_rng
from qverify.verifyproto import (
    MEASUREMENT_ROUND,
    MINIMAL_CIRCUIT,
    ONE_TO_ONE,
    TEST_ROUND,
    TWO_TO_ONE,
    BasisGuessProver,
    HamiltonianInstance,
    HonestProver,
    MixedStateProver,
    ProtocolTranscript,
    WrongTableProver,
    build_clock_instance,
    build_clock_state,
    clock_qubits,
    commit,
    commit_measure_image,
    decode,
    decoded_distribution,
    delegate_rounds,
    enumerate_functions,
    finish_round,
    key_decoded_distribution,
    keygen,
    load_instance_text,
    minimal_clock_instance,
    pauli_expansion,
    serialize_instance,
    verify_energy,
)
from qverify.verifyproto.protocol import HonestSession, _round_atoms

THETA_GRID = np.linspace(0.0, np.pi, 17)


# ---------------------------------------------------------------------------
# function family


class TestFunctionFamily:
    def test_census_counts(self):
        ones, twos = enumerate_functions()
        assert len(ones) == 24
        assert len(twos) == 24

    def test_labels_and_tables_distinct(self):
        ones, twos = enumerate_functions()
        keys = list(ones) + list(twos)
        assert len({k.label for k in keys}) == 48
        assert len({k.table for k in keys}) == 48

    def test_one_to_one_inversion_identity(self):
        ones, _ = enumerate_functions()
        for key in ones:
            assert key.kind == ONE_TO_ONE
            assert sorted(key.table) == [0, 1, 2, 3]
            for b in (0, 1):
                for x in (0, 1):
                    assert key.invert(key.apply(b, x)) == (b, x)

    def test_two_to_one_branch_structure(self):
        _, twos = enumerate_functions()
        for key in twos:
            assert key.kind == TWO_TO_ONE
            branch0 = (key.apply(0, 0), key.apply(0, 1))
            branch1 = (key.apply(1, 0), key.apply(1, 1))
            assert len(set(branch0)) == 2  # injective restriction
            assert len(set(branch1)) == 2
            assert set(branch0) == set(branch1)
            for y in set(branch0):
                x0, x1 = key.preimages(y)
                assert key.apply(0, x0) == y
                assert key.apply(1, x1) == y

    def test_family_matches_brute_force_classification(self):
        # independent oracle: classify all 256 functions {0,1}^2 -> {0,1}^2
        bijections = set()
        claws = set()
        for table in itertools.product(range(4), repeat=4):
            branch0, branch1 = table[:2], table[2:]
            if len(set(table)) == 4:
                bijections.add(table)
            elif (
                len(set(branch0)) == 2
                and len(set(branch1)) == 2
                and set(branch0) == set(branch1)
            ):
                claws.add(table)
        assert len(bijections) == 24
        assert len(claws) == 24
        ones, twos = enumerate_functions()
        assert {k.table for k in ones} == bijections
        assert {k.table for k in twos} == claws

    @pytest.mark.parametrize("basis,kind", [("z", ONE_TO_ONE), ("x", TWO_TO_ONE)])
    def test_keygen_basis_rule(self, basis, kind):
        for seed in range(50):
            assert keygen(basis, seed=seed).kind == kind

    def test_keygen_uniform_over_family(self):
        rng = make_rng(606, "keygen-census")
        counts = {}
        n = 24000
        for _ in range(n):
            label = keygen("x", rng=rng).label
            counts[label] = counts.get(label, 0) + 1
        assert len(counts) == 24
        sigma = np.sqrt(n * (1 / 24) * (23 / 24))
        for c in counts.values():
            assert abs(c - n / 24) < 5 * sigma

    def test_keygen_seed_reproducible(self):
        assert keygen("z", seed=7).label == keygen("z", seed=7).label
        assert keygen("x", seed=3) == keygen("x", seed=3)

    def test_keygen_rejects_unknown_basis(self):
        with pytest.raises(ValueError, match="basis"):
            keygen("y", seed=0)

    def test_preimages_error_outside_image(self):
        _, twos = enumerate_functions()
        key = twos[0]
        missing = [y for y in range(4) if not key.in_image(y)]
        assert len(missing) == 2
        with pytest.raises(ValueError, match="no preimage"):
            key.preimages(missing[0])

    def test_kind_guards(self):
        ones, twos = enumerate_functions()
        with pytest.raises(ValueError):
            ones[0].preimages(0)
        with pytest.raises(ValueError):
            twos[0].invert(0)


# ---------------------------------------------------------------------------
# commitment construction


def _reference_commit(vec: np.ndarray, n: int, qubit: int, table) -> np.ndarray:
    """Plain-loop oracle for the committed amplitudes."""
    out = np.zeros(vec.size * 8, dtype=complex)
    for z in range(vec.size):
        b = (z >> (n - 1 - qubit)) & 1
        for x in (0, 1):
            y = table[2 * b + x]
            out[z * 8 + 4 * x + y] = vec[z] / np.sqrt(2.0)
    return out


class TestCommit:
    def test_zero_state_amplitude_enumeration(self):
        ones, _ = enumerate_functions()
        key = ones[0]  # identity table (0, 1, 2, 3)
        committed = commit(zero_state(1), 0, key.table)
        vec = committed.state.data
        expected = np.zeros(16, dtype=complex)
        expected[0 * 8 + 0 * 4 + key.table[0]] = 1 / np.sqrt(2)
        expected[0 * 8 + 1 * 4 + key.table[1]] = 1 / np.sqrt(2)
        assert np.allclose(vec, expected, atol=1e-15)

    def test_one_state_single_branch(self):
        ones, _ = enumerate_functions()
        key = ones[5]
        v = np.array([0.0, 1.0], dtype=complex)
        committed = commit(QuantumState(v, QubitBasis(1)), 0, key.table)
        vec = committed.state.data
        nonzero = np.flatnonzero(np.abs(vec) > 1e-14)
        assert set(nonzero) == {
            1 * 8 + 0 * 4 + key.table[2],
            1 * 8 + 1 * 4 + key.table[3],
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_loop(self, seed):
        rng = make_rng(seed, "commit-ref")
        state = random_pure_state(3, rng)
        key = keygen("x" if seed % 2 else "z", rng=rng)
        qubit = int(rng.integers(3))
        committed = commit(state, qubit, key.table)
        ref = _reference_commit(state.data, 3, qubit, key.table)
        assert np.allclose(committed.state.data, ref, atol=1e-15)
        assert committed.system_qubit == qubit
        assert committed.preimage_qubit == 3
        assert committed.image_qubits == (4, 5)

    def test_norm_preserved(self):
        rng = make_rng(11, "commit-norm")
        for _ in range(5):
            state = random_pure_state(2, rng)
            key = keygen("x", rng=rng)
            committed = commit(state, 1, key.table)
            assert abs(np.linalg.norm(committed.state.data) - 1.0) < 1e-12

    def test_other_qubits_untouched(self):
        rng = make_rng(12, "commit-rest")
        state = random_pure_state(3, rng)
        key = keygen("z", rng=rng)
        committed = commit(state, 0, key.table)
        before = reduced_density(state.data, 3, [1, 2])
        after = reduced_density(committed.state.data, 6, [1, 2])
        assert np.allclose(before, after, atol=1e-12)

    def test_register_collision_and_input_errors(self):
        with pytest.raises(ValueError, match="collides"):
            commit(zero_state(2), 2, (0, 1, 2, 3))
        with pytest.raises(ValueError, match="pure"):
            commit(zero_state(2).reduced([0, 1]), 0, (0, 1, 2, 3))
        with pytest.raises(ValueError, match="table"):
            commit(zero_state(1), 0, (0, 1, 2))
        with pytest.raises(ValueError, match="table"):
            commit(zero_state(1), 0, (0, 1, 2, 7))


# ---------------------------------------------------------------------------
# image measurement


class TestMeasureImage:
    def test_one_to_one_collapses_to_product(self):
        ones, _ = enumerate_functions()
        state = theta_state(0.3)
        for key in ones[:6]:
            committed = commit(state, 0, key.table)
            y, residual = commit_measure_image(committed, make_rng(5, "img"))
            nz = np.flatnonzero(np.abs(residual.data) > 1e-12)
            assert nz.size == 1  # product state |b>|x>
            b, x = (int(nz[0]) >> 1) & 1, int(nz[0]) & 1
            assert key.apply(b, x) == y
            assert abs(abs(residual.data[nz[0]]) - 1.0) < 1e-12

    def test_two_to_one_residual_is_branch_superposition(self):
        _, twos = enumerate_functions()
        theta = 0.7
        state = theta_state(theta)
        for key in twos[:6]:
            committed = commit(state, 0, key.table)
            y, residual = commit_measure_image(committed, make_rng(6, "img"))
            x0, x1 = key.preimages(y)
            expected = np.zeros(4, dtype=complex)
            expected[0 * 2 + x0] = np.cos(theta)
            expected[1 * 2 + x1] = np.sin(theta)
            assert np.allclose(residual.data, expected, atol=1e-12)

    def test_image_distribution_matches_amplitudes(self):
        theta = 0.9
        state = theta_state(theta)
        ones, twos = enumerate_functions()
        key = ones[7]
        # exact: P(y) = |alpha_b|^2 / 2 for y = table[2b + x]
        exact = np.zeros(4)
        for b, amp in ((0, np.cos(theta)), (1, np.sin(theta))):
            for x in (0, 1):
                exact[key.apply(b, x)] += amp**2 / 2
        committed = commit(state, 0, key.table)
        n = 4000
        rng = make_rng(77, "img-dist")
        counts = np.zeros(4)
        for _ in range(n):
            y, _ = commit_measure_image(commit(state, 0, key.table), rng)
            counts[y] += 1
        for y in range(4):
            sigma = np.sqrt(n * exact[y] * (1 - exact[y])) + 1e-12
            assert abs(counts[y] - n * exact[y]) < 5 * sigma
        # claw keys put exactly half the mass on each image
        claw = twos[3]
        blocks = commit(state, 0, claw.table).state.data.reshape(-1, 4)
        probs = (np.abs(blocks) ** 2).sum(axis=0)
        for y in range(4):
            expect = 0.5 if claw.in_image(y) else 0.0
            assert abs(probs[y] - expect) < 1e-12


# ---------------------------------------------------------------------------
# rounds and decoding


class TestRoundsAndDecoding:
    def test_honest_passes_test_rounds_all_48_keys(self):
        ones, twos = enumerate_functions()
        for key in list(ones) + list(twos):
            for i, theta in enumerate((0.0, 0.4, 1.1, 2.2)):
                session = HonestSession(
                    commit(theta_state(theta), 0, key.table), (), make_rng(1000 + i, "round")
                )
                t, _ = finish_round(TEST_ROUND, key, session)
                assert t.verdict is True
                assert t.round_type == TEST_ROUND
                assert t.key_label == key.label

    def test_test_round_failure_has_zero_probability_exactly(self):
        # atom-level proof: every nonzero-probability (y, b, x) is consistent
        ones, twos = enumerate_functions()
        for key in list(ones) + list(twos):
            for theta in THETA_GRID:
                atoms = _round_atoms(theta_state(theta), key, TEST_ROUND)
                for y in range(4):
                    for b in (0, 1):
                        for x in (0, 1):
                            if atoms[y, b, x] > 1e-15:
                                assert key.apply(b, x) == y

    def test_wrong_table_commit_fails_empirically(self):
        key = keygen("z", seed=21)
        corrupted = tuple(t ^ 1 for t in key.table)
        fails = 0
        for r in range(100):
            session = HonestSession(commit(theta_state(0.8), 0, corrupted), (), make_rng(r, "round"))
            t, _ = finish_round(TEST_ROUND, key, session)
            fails += not t.verdict
        assert fails > 0  # here the corruption is detected every round
        assert fails == 100

    def test_transcript_determinism(self):
        key = keygen("x", seed=9)
        state = theta_state(1.0)
        a, b = (
            finish_round(
                MEASUREMENT_ROUND,
                key,
                HonestSession(commit(state, 0, key.table), (), make_rng(42, "round")),
            )
            for _ in range(2)
        )
        assert a == b

    def test_x_decode_formula_exhaustive_oracle(self):
        """Gate for the claw-key decoding rule u XOR (v AND (x0 XOR x1)).

        Exact decoded distribution must match the X-basis Born law for
        every claw key on the whole state grid before sampled tests may
        rely on the rule.
        """
        _, twos = enumerate_functions()
        for theta in THETA_GRID:
            state = theta_state(theta)
            born0 = (1 + np.sin(2 * theta)) / 2
            for key in twos:
                dist = key_decoded_distribution(state, key)
                assert abs(dist[0] - born0) < 1e-12
                assert abs(dist.sum() - 1.0) < 1e-12

    def test_z_decode_inversion_exhaustive_oracle(self):
        # bijection keys: decoded bit b comes from inverting the image
        ones, _ = enumerate_functions()
        for theta in THETA_GRID:
            state = theta_state(theta)
            for key in ones:
                atoms = _round_atoms(state, key, MEASUREMENT_ROUND)
                dist = np.zeros(2)
                for y in range(4):
                    b, _ = key.invert(y)
                    dist[b] += atoms[y].sum()
                assert abs(dist[0] - np.cos(theta) ** 2) < 1e-12

    def test_plus_state_decodes_to_zero_certainly(self):
        dist = decoded_distribution(plus_state(1), "x")
        assert abs(dist[0] - 1.0) < 1e-12
        summary = delegate_rounds(plus_state(1), "x", 2000, seed=3)
        assert summary.decoded_counts == {0: 2000, 1: 0}

    def test_x_frequency_at_pi_eighth(self):
        theta = np.pi / 8
        n = 10**5
        summary = delegate_rounds(theta_state(theta), "x", n, seed=8)
        p0 = (1 + np.sin(2 * theta)) / 2
        sigma = np.sqrt(p0 * (1 - p0) / n)
        assert abs(summary.decoded_counts[0] / n - p0) < 5 * sigma

    def test_z_frequency_matches_weights(self):
        theta = 0.6
        n = 10**5
        summary = delegate_rounds(theta_state(theta), "z", n, seed=9)
        p0 = np.cos(theta) ** 2
        sigma = np.sqrt(p0 * (1 - p0) / n)
        assert abs(summary.decoded_counts[0] / n - p0) < 5 * sigma

    def test_decode_guards(self):
        key = keygen("x", seed=4)
        test_t = ProtocolTranscript(TEST_ROUND, key.label, 0, (0, 0), True, None, None)
        with pytest.raises(ValueError, match="measurement-round"):
            decode(test_t, key)
        missing = [y for y in range(4) if not key.in_image(y)][0]
        corrupt = ProtocolTranscript(
            MEASUREMENT_ROUND, key.label, missing, (0, 0), None, None, None
        )
        with pytest.raises(ValueError, match="no preimage"):
            decode(corrupt, key)

    def test_delegated_joint_statistics_exact(self):
        """X-delegating one qubit of an entangled pair must reproduce the
        exact joint law with a directly measured partner."""
        rng = make_rng(31, "joint")
        state = random_pure_state(2, rng)
        rot = state.rotated([np.array([[1, 1], [1, -1]]) / np.sqrt(2), None])
        p = rot.probabilities()
        direct = p.reshape(2, 2)  # [x outcome on qubit 0, z outcome on qubit 1]
        _, twos = enumerate_functions()
        for key in twos[:8]:
            committed = commit(state, 0, key.table)
            # enumerate (y, u, v, partner) exactly
            joint = np.zeros((2, 2))
            blocks = committed.state.data.reshape(2, 2, 2, 4)  # (q0, q1, pre, y)
            h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
            for y in range(4):
                amp = blocks[:, :, :, y]  # axes: delegated, partner, preimage
                amp = np.einsum("ab,bcd->acd", h, amp)  # H on delegated
                amp = np.einsum("ab,cdb->cda", h, amp)  # H on preimage
                prob = np.abs(amp) ** 2
                for u in (0, 1):
                    for v in (0, 1):
                        t = ProtocolTranscript(
                            MEASUREMENT_ROUND, key.label, y, (u, v), None, None, None
                        )
                        if prob[u, :, v].sum() < 1e-18:
                            continue
                        m = decode(t, key)
                        joint[m, 0] += prob[u, 0, v]
                        joint[m, 1] += prob[u, 1, v]
            assert np.allclose(joint, direct, atol=1e-12)

    def test_delegate_rounds_input_guards(self):
        with pytest.raises(ValueError, match="single-qubit"):
            delegate_rounds(zero_state(2), "x", 10, seed=0)
        with pytest.raises(ValueError, match="round type"):
            delegate_rounds(zero_state(1), "x", 10, seed=0, round_type="audit")

    def test_delegate_rounds_deterministic(self):
        a = delegate_rounds(theta_state(0.5), "x", 5000, seed=77)
        b = delegate_rounds(theta_state(0.5), "x", 5000, seed=77)
        assert a == b


class TestDelegationFidelity:
    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_total_variation_on_theta_grid(self, basis):
        n = 10**5
        for i, theta in enumerate(THETA_GRID):
            state = theta_state(theta)
            if basis == "z":
                born = np.array([np.cos(theta) ** 2, np.sin(theta) ** 2])
            else:
                born = np.array(
                    [(1 + np.sin(2 * theta)) / 2, (1 - np.sin(2 * theta)) / 2]
                )
            summary = delegate_rounds(state, basis, n, seed=500 + i)
            freq = np.array(
                [summary.decoded_counts[0] / n, summary.decoded_counts[1] / n]
            )
            tv = 0.5 * np.abs(freq - born).sum()
            assert tv <= 0.02

    def test_sampled_test_rounds_never_fail(self):
        summary = delegate_rounds(
            theta_state(1.3), "x", 20000, seed=41, round_type=TEST_ROUND
        )
        assert summary.n_pass == 20000
        assert summary.n_fail == 0


# ---------------------------------------------------------------------------
# history states


def _dense_unitary(name: str, qubits, n: int) -> np.ndarray:
    """kron-built oracle unitary, independent of the gate applicator."""
    from qverify.verifyproto.clock import GATE_MATRICES

    if len(qubits) == 1:
        mats = [GATE_MATRICES[name] if q == qubits[0] else np.eye(2) for q in range(n)]
        out = np.array([[1.0]], dtype=complex)
        for m in mats:
            out = np.kron(out, m)
        return out
    # two-qubit gate via projector expansion on (control, target) slots
    g = GATE_MATRICES[name].reshape(2, 2, 2, 2)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        for a in (0, 1):
            for b in (0, 1):
                amp = g[a, b, bits[qubits[0]], bits[qubits[1]]]
                if amp == 0:
                    continue
                new = bits.copy()
                new[qubits[0]], new[qubits[1]] = a, b
                j = int("".join(map(str, new)), 2)
                out[j, i] += amp
    return out


class TestClockStates:
    def test_minimal_instance_is_four_qubits(self):
        inst = minimal_clock_instance()
        assert inst.t_count == 3
        assert inst.n_clock == 2
        assert inst.n_comp == 2
        assert inst.num_qubits == 4

    def test_history_state_matches_kron_oracle(self):
        inst = minimal_clock_instance()
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        states = [vec]
        for name, qubits in inst.circuit:
            states.append(_dense_unitary(name, qubits, 2) @ states[-1])
        expected = np.concatenate(states) / 2.0
        assert np.allclose(inst.eta.data, expected, atol=1e-14)

    @pytest.mark.parametrize(
        "circuit,n_comp",
        [
            (MINIMAL_CIRCUIT, 2),
            ((("h", 0),), 1),
            ((("h", 0), ("cnot", 0, 1)), 2),
            ((("x", 0), ("h", 1), ("cz", 0, 1), ("s", 0)), 2),
            ((("h", 0), ("cnot", 0, 1), ("cnot", 1, 2)), 3),
        ],
    )
    def test_propagation_annihilates_history_state(self, circuit, n_comp):
        inst = build_clock_instance(circuit, n_comp)
        assert np.linalg.norm(inst.h_prop @ inst.eta.data) <= 1e-10

    def test_trivial_circuit(self):
        assert clock_qubits(0) == 0
        eta = build_clock_state((), 2)
        assert eta.num_qubits == 2
        assert np.allclose(eta.data, [1, 0, 0, 0])

    def test_accepting_circuit_energy_below_yes_threshold(self):
        inst = minimal_clock_instance()
        e = float(np.real(inst.eta.data.conj() @ inst.hamiltonian @ inst.eta.data))
        assert e < inst.threshold_yes
        assert abs(e) < 1e-12  # exact zero mode of every penalty term

    def test_thresholds_from_spectrum(self):
        inst = minimal_clock_instance()
        w = np.linalg.eigvalsh(inst.hamiltonian)
        assert inst.threshold_yes < inst.threshold_no
        assert w[0] < inst.threshold_yes
        gap = w[w > w[0] + 1e-8][0] - w[0]
        assert np.isclose(inst.threshold_yes, w[0] + gap / 3)
        assert np.isclose(inst.threshold_no, w[0] + 2 * gap / 3)

    def test_rejecting_circuit_has_positive_ground_energy(self):
        # output qubit 1 stays 0 after acting only on qubit 0
        inst = build_clock_instance((("x", 0),), 2, output_qubit=1)
        w = np.linalg.eigvalsh(inst.hamiltonian)
        assert w[0] > 0.01

    def test_pauli_expansion_reassembles_and_contains_y(self):
        inst = minimal_clock_instance()
        dense = assemble_pauli_operator(inst.num_qubits, inst.pauli_terms)
        assert np.allclose(dense, inst.hamiltonian, atol=1e-10)
        # the expansion is not XZ-only, which is why these instances are
        # validated by exact expectation instead of delegation
        assert any("Y" in t.factors for t in inst.pauli_terms)

    def test_invalid_clock_states_are_penalized(self):
        inst = build_clock_instance((("h", 0), ("cnot", 0, 1)), 2)  # T=2, clock 2
        assert inst.n_clock == 2
        dim_c = 4
        for z in range(dim_c):
            i = 3 * dim_c + z  # clock value 3 is unused
            assert inst.hamiltonian[i, i].real >= 1.0

    def test_gate_validation_errors(self):
        with pytest.raises(ValueError, match="unknown gate"):
            build_clock_state((("toffoli", 0, 1),), 2)
        with pytest.raises(ValueError, match="acts on"):
            build_clock_state((("cnot", 0),), 2)
        with pytest.raises(ValueError, match="acts on"):
            build_clock_state((("h", 0, 1),), 2)
        with pytest.raises(ValueError, match="outside"):
            build_clock_state((("h", 5),), 2)
        with pytest.raises(ValueError, match="distinct"):
            build_clock_state((("cnot", 1, 1),), 2)

    def test_simulability_bound(self):
        circuit = (("x", 0), ("x", 1), ("x", 2))  # T=3 -> 2 clock qubits
        with pytest.raises(ValueError, match="simulability"):
            build_clock_instance(circuit, n_comp=11)

    def test_pauli_expansion_matches_kron_trace_oracle(self):
        rng = make_rng(14, "expansion-oracle")
        for n in range(1, 5):
            g = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
            h = g + g.conj().T
            expected = []
            for letters in itertools.product("IXYZ", repeat=n):
                p = kron_chain("".join(letters))
                expected.append(("".join(letters), np.trace(p @ h) / (1 << n)))
            got = pauli_expansion(h, n)
            # a generic Hermitian matrix has all 4^n strings, in IXYZ order
            assert [t.factors for t in got] == [f for f, _ in expected]
            for t, (_, c) in zip(got, expected):
                assert abs(t.coeff - c) < 1e-12

    def test_expansion_size_guard(self):
        with pytest.raises(ValueError, match="limited"):
            pauli_expansion(np.eye(1 << 7), 7)


# ---------------------------------------------------------------------------
# energy verification


def _tfi_instance() -> tuple[HamiltonianInstance, QuantumState, float]:
    """Pinned 4-qubit instance: nearest-neighbour XX couplings plus a
    uniform Z field, thresholds straddling the spectrum between the exact
    ground energy (-3.427) and the cheating baselines (-0.92 and 0)."""
    n = 4
    terms = [
        PauliTerm(-1.0, "".join("X" if j in (i, i + 1) else "I" for j in range(n)))
        for i in range(n - 1)
    ]
    terms += [
        PauliTerm(-0.5, "".join("Z" if j == i else "I" for j in range(n)))
        for i in range(n)
    ]
    inst = HamiltonianInstance(n, tuple(terms), -2.5, -1.85)
    w, v = np.linalg.eigh(inst.matrix())
    gs = QuantumState(v[:, 0].astype(complex), QubitBasis(n))
    return inst, gs, float(w[0])


class TestHamiltonianInstance:
    def test_rejects_y_factors(self):
        with pytest.raises(ValueError, match="outside I/X/Z"):
            HamiltonianInstance(2, (PauliTerm(1.0, "XY"),), 0.0, 1.0)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError, match="a < b"):
            HamiltonianInstance(2, (PauliTerm(1.0, "XZ"),), 1.0, 1.0)

    def test_rejects_wrong_width_and_complex_coeff(self):
        with pytest.raises(ValueError, match="does not act"):
            HamiltonianInstance(3, (PauliTerm(1.0, "XZ"),), 0.0, 1.0)
        with pytest.raises(ValueError, match="non-real"):
            HamiltonianInstance(2, (PauliTerm(1.0 + 0.5j, "XZ"),), 0.0, 1.0)

    def test_matrix_and_expectation(self):
        inst, gs, e0 = _tfi_instance()
        assert abs(np.vdot(gs.data, inst.matrix() @ gs.data).real - e0) < 1e-10
        assert abs(inst.midpoint - (-2.175)) < 1e-12

    def test_serialization_roundtrip(self):
        inst, _, _ = _tfi_instance()
        text = serialize_instance(inst)
        assert text == serialize_instance(inst)  # deterministic bytes
        back = load_instance_text(text)
        assert back == inst

    def test_serialization_tamper_detected(self):
        inst, _, _ = _tfi_instance()
        text = serialize_instance(inst)
        with pytest.raises(ValueError, match="digest"):
            load_instance_text(text.replace('"num_qubits":4', '"num_qubits":5'))
        doc = json.loads(text)
        del doc["digest"]
        with pytest.raises(ValueError, match="digest"):
            load_instance_text(json.dumps(doc))


class TestVerifyEnergy:
    def test_honest_two_qubit_example(self):
        # smallest mixed-basis instance: one ZZ coupling, one X field
        terms = (PauliTerm(-1.0, "ZZ"), PauliTerm(-0.7, "XI"))
        h = assemble_pauli_operator(2, terms)
        w, v = np.linalg.eigh(h)
        e0 = float(w[0])
        inst = HamiltonianInstance(2, terms, e0 + 0.2, e0 + 0.6)
        gs = QuantumState(v[:, 0].astype(complex), QubitBasis(2))
        res = verify_energy(inst, HonestProver(gs), 1500, 0.5, seed=19)
        assert res.accepted
        assert res.n_test_failures == 0
        assert abs(res.estimate - e0) < 5 * res.std_error

    def test_rejects_no_rounds_and_all_zero_couplings(self):
        inst, gs, _ = _tfi_instance()
        for n_rounds in (0, -3):
            with pytest.raises(ValueError, match="round"):
                verify_energy(inst, HonestProver(gs), n_rounds, 0.5, seed=1)
        # 0/0 sampling weights: a NaN probability vector before this check
        zero = HamiltonianInstance(2, (PauliTerm(0.0, "ZZ"), PauliTerm(0.0, "XI")), -1.0, 0.0)
        prover = HonestProver(QuantumState(np.eye(4, dtype=complex)[0], QubitBasis(2)))
        with pytest.raises(ValueError, match="nonzero"):
            verify_energy(zero, prover, 10, 0.5, seed=1)

    def test_honest_accepted_on_pinned_instance(self):
        inst, gs, e0 = _tfi_instance()
        res = verify_energy(inst, HonestProver(gs), 1000, 0.5, seed=23)
        assert res.accepted
        assert res.test_pass_rate == 1.0
        assert abs(res.estimate - e0) < 5 * res.std_error
        assert res.commit_qubits == 7

    def test_mixed_prover_rejected(self):
        inst, _, _ = _tfi_instance()
        res = verify_energy(inst, MixedStateProver(4), 1000, 0.5, seed=29)
        assert not res.accepted
        assert res.n_test_failures == 0  # rejected on energy, not consistency
        assert abs(res.estimate) < 5 * res.std_error

    def test_basis_guess_prover_rejected(self):
        inst, gs, _ = _tfi_instance()
        # fabricated X data flattens the coupling terms; the surviving
        # field expectation sits far above the midpoint
        res = verify_energy(inst, BasisGuessProver(gs), 1000, 0.5, seed=31)
        assert not res.accepted
        assert res.n_test_failures == 0
        cheat_energy = -0.9202528045421252  # field-only expectation, exact diag
        assert abs(res.estimate - cheat_energy) < 5 * res.std_error

    def test_wrong_table_rejected_immediately(self):
        inst, gs, _ = _tfi_instance()
        res = verify_energy(inst, WrongTableProver(gs), 1000, 0.5, seed=37)
        assert not res.accepted
        assert res.n_test_failures == 1
        assert res.failure is not None
        assert res.failure.round_type == TEST_ROUND
        assert res.failure.verdict is False
        assert res.n_rounds < 1000  # stopped at the first failed audit

    def test_estimator_unbiased_over_seeded_runs(self):
        inst, gs, e0 = _tfi_instance()
        prover = HonestProver(gs)
        estimates = np.array(
            [
                verify_energy(inst, prover, 80, 0.5, seed=s).estimate
                for s in range(200)
            ]
        )
        tol = 5 * estimates.std(ddof=1) / np.sqrt(200)
        assert abs(estimates.mean() - e0) < tol

    def test_deterministic_under_seed(self):
        inst, gs, _ = _tfi_instance()
        a = verify_energy(inst, HonestProver(gs), 200, 0.5, seed=5)
        b = verify_energy(inst, HonestProver(gs), 200, 0.5, seed=5)
        assert a == b

    def test_extreme_test_fractions(self):
        inst, gs, _ = _tfi_instance()
        only_meas = verify_energy(inst, HonestProver(gs), 300, 0.0, seed=7)
        assert only_meas.n_test_rounds == 0
        assert np.isnan(only_meas.test_pass_rate)
        assert only_meas.accepted
        only_test = verify_energy(inst, HonestProver(gs), 300, 1.0, seed=7)
        assert only_test.n_measurement_rounds == 0
        assert not only_test.accepted  # no data, cannot certify
        assert np.isnan(only_test.estimate)

    def test_input_guards(self):
        inst, gs, _ = _tfi_instance()
        with pytest.raises(ValueError, match="test fraction"):
            verify_energy(inst, HonestProver(gs), 10, 1.5, seed=0)
        ident = HamiltonianInstance(2, (PauliTerm(1.0, "II"),), 0.0, 1.0)
        with pytest.raises(ValueError, match="non-identity"):
            verify_energy(ident, HonestProver(zero_state(2)), 10, 0.5, seed=0)

    def test_identity_terms_add_constant_offset(self):
        terms = (PauliTerm(-1.0, "ZZ"), PauliTerm(2.5, "II"))
        h = assemble_pauli_operator(2, terms)
        w, v = np.linalg.eigh(h)
        inst = HamiltonianInstance(2, terms, float(w[0]) + 0.1, float(w[0]) + 0.5)
        gs = QuantumState(v[:, 0].astype(complex), QubitBasis(2))
        res = verify_energy(inst, HonestProver(gs), 800, 0.5, seed=3)
        # every round yields the same eigenvalue here, so the error is 0
        assert abs(res.estimate - float(w[0])) <= 5 * res.std_error + 1e-12
