"""States, solvers, rotations, partial traces, Born sampling."""

import itertools

import numpy as np
import pytest
from scipy.stats import chi2

from oracle_helpers import (
    assert_ground_state_matches_dense,
    dense_pauli_operator,
    expectation,
    kron_chain,
    observable_variance,
    sample_observable,
    thermal_state,
    time_evolve,
)
from qverify.qsim import (
    FermionBasis,
    LatticeSpec,
    PauliTerm,
    QuantumState,
    QubitBasis,
    apply_gate,
    apply_local_unitaries,
    assemble_operator,
    assemble_pauli_operator,
    ghz_state,
    ground_state,
    hubbard_terms,
    parse_state_spec,
    plus_state,
    random_density_state,
    random_pure_state,
    reduced_density,
    sample_counts,
    theta_state,
    zero_state,
)
from qverify.randmeas import haar_unitary
from qverify.rng import make_rng


def test_pauli_term_matrix_matches_kron_oracle():
    # every Pauli string on 1-4 qubits, bit for bit (multiplying by +-1 and
    # +-i is exact, so the mask-built entries must equal the kron products)
    rng = make_rng(12, "pauli-oracle")
    for n in range(1, 5):
        for letters in itertools.product("IXYZ", repeat=n):
            factors = "".join(letters)
            coeff = complex(rng.normal(), rng.normal())
            expected = coeff * kron_chain(factors)
            assert np.array_equal(assemble_pauli_operator(n, [PauliTerm(coeff, factors)]).toarray(), expected)
    # a sum of terms is the sum of their kron products
    terms = [PauliTerm(-1.0, "XXI"), PauliTerm(0.5, "ZIZ"), PauliTerm(0.25, "IYI")]
    expected = sum(t.coeff * kron_chain(t.factors) for t in terms)
    assert np.allclose(assemble_pauli_operator(3, terms).toarray(), expected, rtol=0, atol=1e-15)


def test_pauli_operator_matches_dense_oracle_bit_for_bit():
    # overlapping terms: several share an x mask, so their entries collide and
    # each sum must round as the dense += over the same term order does
    rng = make_rng(16, "pauli-csr")
    for _ in range(120):
        n = int(rng.integers(1, 7))
        terms = [
            PauliTerm(complex(rng.normal(), rng.normal() * (k % 2)), "".join(rng.choice(list("IXYZ"), size=n)))
            for k in range(int(rng.integers(1, 3 * n + 3)))
        ]
        terms += [PauliTerm(rng.normal(), "Z" * n), PauliTerm(rng.normal(), "Z" * n)]
        op = assemble_pauli_operator(n, terms)
        assert op.format == "csr"
        assert np.array_equal(op.toarray(), dense_pauli_operator(n, terms))
    empty = assemble_pauli_operator(3, [])
    assert empty.shape == (8, 8) and empty.nnz == 0


def test_ground_state_dense_vs_sparse_consistent():
    # same operator through both paths must give the same energy
    lat = LatticeSpec(2, 3, j=1.0, u=4.0, nup=2, ndown=2)
    basis = FermionBasis(lat)
    h = assemble_operator(basis, hubbard_terms(lat))
    e_dense, _ = ground_state(h, basis)
    import qverify.qsim.solve as solve_mod

    old = solve_mod.DENSE_CUTOFF
    solve_mod.DENSE_CUTOFF = 1  # force the Lanczos path
    try:
        e_sparse, st = ground_state(h, basis)
    finally:
        solve_mod.DENSE_CUTOFF = old
    assert abs(e_dense - e_sparse) < 1e-9
    st.validate()


def test_sparse_ground_state_is_reproducible():
    # the 2x4 half-filled sector lies above DENSE_CUTOFF, so both solves run
    # Lanczos; a fixed start vector makes them agree bit for bit
    import qverify.qsim.solve as solve_mod

    lat = LatticeSpec(2, 4, j=1.0, u=4.0, nup=4, ndown=4)
    basis = FermionBasis(lat)
    assert basis.dim > solve_mod.DENSE_CUTOFF
    h = assemble_operator(basis, hubbard_terms(lat))
    (e1, s1), (e2, s2) = ground_state(h, basis), ground_state(h, basis)
    assert e1 == e2
    assert np.array_equal(s1.data, s2.data)


_SOLVER_LATTICES = [
    LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1),
    LatticeSpec(2, 2, j=1.0, u=4.0, nup=2, ndown=2),
    LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3),
    LatticeSpec(2, 4, j=1.0, u=4.0, nup=2, ndown=2),
    LatticeSpec(2, 4, j=1.0, u=4.0, nup=3, ndown=3),
]


@pytest.mark.parametrize("lat", _SOLVER_LATTICES, ids=lambda l: f"{l.rows}x{l.cols}-{l.nup}+{l.ndown}")
def test_ground_state_matches_dense_oracle(lat):
    # sectors on both sides of DENSE_CUTOFF (4, 36, 400 below; 784, 3136 above)
    basis = FermionBasis(lat)
    assert_ground_state_matches_dense(assemble_operator(basis, hubbard_terms(lat)), basis)


@pytest.mark.parametrize("rows, cols, n", [(2, 2, 1), (2, 4, 2)], ids=["dim16", "dim784"])
def test_zero_operator_ground_state_is_the_first_basis_vector(rows, cols, n):
    # Lanczos cannot start on a zero operator, so both sides of the
    # crossover return the eigenpair the dense eigh gives
    lat = LatticeSpec(rows, cols, j=0.0, u=0.0, nup=n, ndown=n)
    basis = FermionBasis(lat)
    energy, state = ground_state(assemble_operator(basis, hubbard_terms(lat)), basis)
    assert energy == 0.0
    assert np.array_equal(state.data, np.eye(basis.dim)[0])


@pytest.mark.parametrize("dense_path", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ground_state_refuses_non_finite_operator(bad, dense_path, monkeypatch):
    import qverify.qsim.solve as solve_mod

    if not dense_path:
        monkeypatch.setattr(solve_mod, "DENSE_CUTOFF", 1)
    lat = LatticeSpec(2, 2, j=1.0, u=bad, nup=2, ndown=2)
    basis = FermionBasis(lat)
    with pytest.raises(ValueError, match="^operator has non-finite entries$"):
        ground_state(assemble_operator(basis, hubbard_terms(lat)), basis)


def test_thermal_state_limits():
    lat = LatticeSpec(1, 2, j=1.0, u=2.0, nup=1, ndown=1)
    basis = FermionBasis(lat)
    h = assemble_operator(basis, hubbard_terms(lat))
    # beta -> 0: maximally mixed
    rho0 = thermal_state(h, basis, 0.0)
    assert np.allclose(rho0.data, np.eye(basis.dim) / basis.dim)
    # large beta: projector onto the ground state
    e, gs = ground_state(h, basis)
    rho = thermal_state(h, basis, 50.0)
    assert abs(expectation(rho, h.toarray()) - e) < 1e-8
    rho.validate()


def test_time_evolution_preserves_energy_and_norm():
    lat = LatticeSpec(2, 2, j=1.0, u=3.0, nup=2, ndown=1)
    basis = FermionBasis(lat)
    h = assemble_operator(basis, hubbard_terms(lat))
    rng = make_rng(11, "evolve")
    v = rng.normal(size=basis.dim)
    psi0 = QuantumState(v / np.linalg.norm(v), basis)
    e0 = expectation(psi0, h)
    psi_t = time_evolve(psi0, h, 0.37)
    assert abs(np.linalg.norm(psi_t.data) - 1) < 1e-10
    assert abs(expectation(psi_t, h) - e0) < 1e-8
    # dense and Krylov propagation agree
    import qverify.qsim.solve as solve_mod

    old = solve_mod.DENSE_CUTOFF
    solve_mod.DENSE_CUTOFF = 1
    try:
        psi_k = time_evolve(psi0, h, 0.37)
    finally:
        solve_mod.DENSE_CUTOFF = old
    assert np.allclose(psi_t.data, psi_k.data, atol=1e-8)


def test_expectation_pure_vs_density():
    st = ghz_state(3)
    op = assemble_pauli_operator(3, [PauliTerm(1.0, "XXX")])
    assert abs(expectation(st, op) - 1.0) < 1e-12
    rho = QuantumState(st.as_density(), QubitBasis(3))
    assert abs(expectation(rho, op) - 1.0) < 1e-12


def test_observable_variance_matches_dense():
    rng = make_rng(5, "var")
    st = random_pure_state(3, rng)
    op = assemble_pauli_operator(
        3, [PauliTerm(0.8, "XIZ"), PauliTerm(-0.3, "ZZI")]
    )
    want = expectation(st, op @ op) - expectation(st, op) ** 2
    assert abs(observable_variance(st, op) - want) < 1e-10


def test_sample_counts_chi_square():
    st = theta_state(np.pi / 5)
    big = ghz_state(2)
    for state, probs in [
        (st, np.array([np.cos(np.pi / 5) ** 2, np.sin(np.pi / 5) ** 2])),
        (big, np.array([0.5, 0.0, 0.0, 0.5])),
    ]:
        rows = sample_counts(state, 20000, make_rng(3, "chi"))
        assert rows.dtype == np.int64 and rows.shape[1] == 2
        assert np.all(np.diff(rows[:, 0]) > 0)
        counts = dict(rows.tolist())
        total = sum(counts.values())
        assert total == 20000
        stat = 0.0
        dof = 0
        for i, p in enumerate(probs):
            if p == 0:
                assert i not in counts
                continue
            obs = counts.get(i, 0)
            stat += (obs - total * p) ** 2 / (total * p)
            dof += 1
        assert stat < chi2.ppf(0.999, dof - 1)


def test_sample_observable_unbiased_and_exact_variance():
    st = plus_state(1)
    z = assemble_pauli_operator(1, [PauliTerm(1.0, "Z")])
    stats = sample_observable(st, z, 40000, make_rng(9, "obs"))
    # mean of +-1 samples, exact mean 0, sd 1/sqrt(n)
    assert abs(stats.mean) < 5 / np.sqrt(40000)
    assert abs(stats.variance - 1.0) < 0.05
    # deterministic observable: zero variance
    stats2 = sample_observable(zero_state(1), z, 100, make_rng(9, "obs2"))
    assert stats2.mean == 1.0 and stats2.variance == 0.0


def test_sample_observable_mixed_state():
    rng = make_rng(21, "mix")
    rho = random_density_state(2, rng)
    op = assemble_pauli_operator(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.5, "XX")])
    exact = expectation(rho, op)
    sd = np.sqrt(observable_variance(rho, op) / 50000)
    stats = sample_observable(rho, op, 50000, rng)
    assert abs(stats.mean - exact) < 5 * max(sd, 1e-12)


def test_apply_local_unitaries_pure_and_mixed():
    rng = make_rng(2, "rot")
    st = random_pure_state(3, rng)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]])
    us = [h, None, s]
    rotated = st.rotated(us)
    full = np.kron(np.kron(h, np.eye(2)), s)
    assert np.allclose(rotated.data, full @ st.data)
    rho = QuantumState(st.as_density(), QubitBasis(3))
    rho_rot = rho.rotated(us)
    assert np.allclose(rho_rot.data, full @ rho.data @ full.conj().T)


def test_apply_local_unitaries_full_rank_density():
    rng = make_rng(8, "rot-mixed")
    rho = random_density_state(3, rng)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    full = np.kron(np.kron(u, np.eye(2)), h)
    got = apply_local_unitaries(rho.data, [u, None, h])
    np.testing.assert_allclose(got, full @ rho.data @ full.conj().T, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        apply_local_unitaries(np.eye(2, 8), [u, h])


def _kron_gate(n: int, gate: np.ndarray, qubits) -> np.ndarray:
    """Dense matrix of ``gate`` on ``qubits``: its Pauli expansion with each
    factor placed on its qubit by Kronecker products."""
    k = len(qubits)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for letters in itertools.product("IXYZ", repeat=k):
        coeff = np.trace(kron_chain("".join(letters)) @ gate) / 2**k
        factors = ["I"] * n
        for q, f in zip(qubits, letters):
            factors[q] = f
        out += coeff * kron_chain("".join(factors))
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_apply_gate_matches_kron_oracle(n):
    # every single qubit, then adjacent, non-adjacent and reversed pairs
    rng = make_rng(n, "apply-gate")
    vec = random_pure_state(n, rng).data
    placements = [(q,) for q in range(n)] + [(0, 1), (1, 2), (0, 2), (2, 0), (n - 1, 0)]
    for qubits in placements:
        gate = haar_unitary(rng, 2 ** len(qubits))
        expected = _kron_gate(n, gate, qubits) @ vec
        assert np.allclose(apply_gate(vec, n, gate, qubits), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("qubits", [(1, 1), (0, 3), (3,), (-1,), (2, 0, 2)])
def test_apply_gate_refuses_repeated_or_outside_qubits(qubits):
    gate = np.eye(2 ** len(qubits), dtype=complex)
    with pytest.raises(ValueError, match="gate qubits"):
        apply_gate(zero_state(3).data, 3, gate, qubits)


def test_make_rng_needs_an_integer_seed():
    with pytest.raises(TypeError):
        make_rng(None, "unseeded")


def test_reduced_density_pure_and_mixed():
    st = ghz_state(3)
    red = st.reduced([0, 2])
    assert np.allclose(red.data, np.diag([0.5, 0, 0, 0.5]))
    rng = make_rng(4, "red")
    rho = random_density_state(3, rng)
    # tracing out nothing returns the state itself (any order)
    assert np.allclose(
        reduced_density(rho.data, 3, [0, 1, 2]), rho.data, atol=1e-12
    )
    # oracle: reduced of a product state is the factor
    a = random_density_state(1, rng).data
    b = random_density_state(2, rng).data
    prod = np.kron(a, b)
    assert np.allclose(reduced_density(prod, 3, [0]), a, atol=1e-12)
    assert np.allclose(reduced_density(prod, 3, [1, 2]), b, atol=1e-12)
    # order matters: swapped subsystem = swapped matrix
    swapped = reduced_density(prod, 3, [2, 1])
    direct = reduced_density(prod, 3, [1, 2])
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(swapped, swap @ direct @ swap)


def test_parse_state_spec():
    assert np.allclose(parse_state_spec("ghz:3").data, ghz_state(3).data)
    assert parse_state_spec("zero:2").data[0] == 1.0
    amps = parse_state_spec("amps:0.6,0.8")
    assert np.allclose(amps.data, [0.6, 0.8])
    with pytest.raises(ValueError):
        parse_state_spec("nope:3")
    with pytest.raises(ValueError):
        parse_state_spec("amps:1,1,1")
    for spec in ("theta:nan", "theta:inf", "amps:nan,1", "amps:inf,1"):
        with pytest.raises(ValueError, match=f"^state spec '{spec}' has a non-finite value$"):
            parse_state_spec(spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_refuses_non_finite_states(bad):
    # abs(nan - 1) > atol is False, so a NaN norm or trace must fail as such
    with pytest.raises(ValueError, match="norm"):
        QuantumState(np.array([bad, 0.0], dtype=complex), QubitBasis(1)).validate()
    with pytest.raises(ValueError, match="trace"):
        QuantumState(np.diag([bad, 0.0]).astype(complex), QubitBasis(1)).validate()


def test_ground_state_residual_guard():
    # guard triggers when the solver cannot converge in the iteration cap
    lat = LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)
    basis = FermionBasis(lat)
    h = assemble_operator(basis, hubbard_terms(lat))
    import qverify.qsim.solve as solve_mod

    old = solve_mod.DENSE_CUTOFF
    solve_mod.DENSE_CUTOFF = 1
    try:
        with pytest.raises(Exception):
            ground_state(h, basis, maxiter=1)
    finally:
        solve_mod.DENSE_CUTOFF = old
