"""Hamiltonian learning: operator basis, constraints, K matrix, recovery."""

import numpy as np
import pytest

from oracle_helpers import greedy_selection, monomial_k_row, observable_variance, thermal_state
from qverify.hamlearn import (
    KRowEngine,
    KSampler,
    build_constraints,
    build_operator_basis,
    enumerate_candidates,
    k_matrix_exact,
    k_matrix_sampled,
    learning_curve,
    parameter_distance,
    reconstruct,
)
from qverify.hamlearn.constraints import INDEPENDENCE_TOL
from qverify.hamlearn.curves import fit_loglog_slope
from qverify.qsim import (
    FermionBasis,
    LatticeSpec,
    QuantumState,
    assemble_operator,
    current_terms,
    ground_state,
    hubbard_terms,
    number_terms,
)
from qverify.qsim.fermion import multiply_terms, scale_terms
from qverify.rng import make_rng


def _ground(lat):
    basis = FermionBasis(lat)
    h = assemble_operator(basis, hubbard_terms(lat))
    energy, state = ground_state(h, basis)
    return basis, h, energy, state


@pytest.mark.parametrize(
    "rows,cols,want_m",
    [(1, 2, 4), (2, 2, 12), (2, 3, 20), (3, 4, 46)],
)
def test_operator_basis_size(rows, cols, want_m):
    lat = LatticeSpec(rows, cols, nup=1, ndown=1)
    ob = build_operator_basis(lat)
    assert ob.m == want_m
    n_bonds = len(lat.bonds())
    assert ob.m == 2 * n_bonds + lat.n_sites


def test_coefficient_vector_layout():
    lat = LatticeSpec(1, 2, j=1.5, u=7.0, nup=1, ndown=1)
    ob = build_operator_basis(lat)
    np.testing.assert_allclose(ob.coefficient_vector(), [-1.5, -1.5, 7.0, 7.0])
    assert [e.kind for e in ob.elements] == ["hopping", "hopping", "doublon", "doublon"]


def test_candidate_pool_smallest_lattice():
    lat = LatticeSpec(1, 2, nup=1, ndown=1)
    pool = enumerate_candidates(lat)
    # one bond, two spins, k in {0, 1}, two density spins
    assert len(pool) == 8
    assert all(c.k_site in (0, 1) for c in pool)


def test_candidates_hermitian_and_traceless_current():
    lat = LatticeSpec(2, 2, j=1.0, u=3.0, nup=2, ndown=1)
    basis = FermionBasis(lat)
    for cand in enumerate_candidates(lat):
        a = assemble_operator(basis, list(cand.terms)).toarray()
        assert np.allclose(a, a.conj().T), cand.label


def test_k_entries_match_commutator_expectation():
    # dual route: engine inner products vs dense <-i[A, S]>
    lat = LatticeSpec(2, 2, j=1.0, u=4.0, nup=2, ndown=1)
    basis, h, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    eng = KRowEngine(state, ob)
    pool = enumerate_candidates(lat)[:10]
    psi = state.data
    for cand in pool:
        a = assemble_operator(basis, list(cand.terms)).toarray()
        row = eng.rows([cand])[0]
        for m, elem in enumerate(ob.elements):
            s = assemble_operator(basis, list(elem.terms)).toarray()
            comm = -1j * (a @ s - s @ a)
            want = float(np.real(np.vdot(psi, comm @ psi)))
            assert abs(row[m] - want) < 1e-10


def test_k_rows_annihilate_true_coefficients():
    for lat in (
        LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1),
        LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3),
    ):
        _, _, _, state = _ground(lat)
        ob = build_operator_basis(lat)
        cs = build_constraints(state, ob, n_constraints=ob.m)
        km = k_matrix_exact(state, ob, cs)
        c_true = ob.coefficient_vector()
        assert np.max(np.abs(km.values @ c_true)) < 1e-9


def test_k_matrix_mixed_state_stationary():
    # thermal states of H are stationary too; mixed-path rows annihilate c
    lat = LatticeSpec(1, 2, j=1.0, u=4.0, nup=1, ndown=1)
    basis = FermionBasis(lat)
    h = assemble_operator(basis, hubbard_terms(lat))
    rho = thermal_state(h, basis, beta=1.7)
    ob = build_operator_basis(lat)
    eng = KRowEngine(rho, ob)
    c_true = ob.coefficient_vector()
    for cand in enumerate_candidates(lat):
        assert abs(eng.rows([cand])[0] @ c_true) < 1e-10


# A random density matrix is not stationary, so every ensemble member shows
# in the rows.  A thermal state's members are eigenvectors of H: dropping one
# still leaves rows that annihilate the couplings.
MIXED_LATTICE = LatticeSpec(2, 2, j=1.0, u=4.0, nup=2, ndown=1)


def _random_sector_density(lat, seed, rank=None):
    """Ginibre density matrix G G+ / tr over a fermionic sector."""
    basis = FermionBasis(lat)
    g = make_rng(seed, "sector-rho").normal(size=(basis.dim, rank or basis.dim, 2)) @ [1, 1j]
    rho = g @ g.conj().T
    return QuantumState(rho / np.trace(rho).real, basis)


def _dense(basis, op):
    return assemble_operator(basis, list(op.terms)).toarray()


@pytest.mark.parametrize("rank", [None, 3])
def test_k_rows_mixed_state_match_dense_trace(rank):
    rho = _random_sector_density(MIXED_LATTICE, 31, rank)
    ob = build_operator_basis(MIXED_LATTICE)
    eng = KRowEngine(rho, ob)
    s_dense = [_dense(rho.basis, e) for e in ob.elements]
    for cand in enumerate_candidates(MIXED_LATTICE):
        a = _dense(rho.basis, cand)
        want = [2.0 * np.imag(np.trace(a @ s @ rho.data)) for s in s_dense]
        np.testing.assert_allclose(eng.rows([cand])[0], want, rtol=0, atol=1e-12)


def test_candidate_terms_are_symmetrized_current_densities():
    # the factored rows read a candidate off (bond, spin, k_site, k_spin)
    for cand in enumerate_candidates(LatticeSpec(2, 3, nup=1, ndown=1)):
        cur = current_terms(*cand.bond, cand.spin)
        den = number_terms(cand.k_site, cand.k_spin)
        sym = scale_terms(multiply_terms(cur, den) + multiply_terms(den, cur), 0.5)
        assert cand.terms == tuple(sym), cand.label


def _factored_vs_monomial(state):
    ob = build_operator_basis(state.basis.lattice)
    eng = KRowEngine(state, ob)
    pool = enumerate_candidates(state.basis.lattice)
    factored = eng.rows(pool)
    for cand, row in zip(pool, factored):
        want = monomial_k_row(eng, cand)
        assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want), cand.label


@pytest.mark.parametrize(
    "lat",
    [LatticeSpec(2, 2, j=1.0, u=8.0, nup=2, ndown=2), LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)],
    ids=["2x2", "2x3"],
)
def test_factored_rows_match_monomial_oracle_pure(lat):
    _factored_vs_monomial(_ground(lat)[3])


@pytest.mark.parametrize("rank", [None, 3])
def test_factored_rows_match_monomial_oracle_mixed(rank):
    _factored_vs_monomial(_random_sector_density(MIXED_LATTICE, 34, rank))


def test_entries_of_disjoint_operators_are_exact_zeros():
    # rounding noise of random sign in place of these zeros would decide which
    # vector the SVD returns from a degenerate null space
    _, _, _, state = _ground(MIXED_LATTICE)
    ob = build_operator_basis(MIXED_LATTICE)
    pool = enumerate_candidates(MIXED_LATTICE)
    rows = KRowEngine(state, ob).rows(pool)

    def modes(op):
        return {mode for t in op.terms for mode, _ in t.ops}

    n_disjoint = 0
    for cand, row in zip(pool, rows):
        a = _dense(state.basis, cand)
        for m, elem in enumerate(ob.elements):
            if not modes(cand) & modes(elem):
                s = _dense(state.basis, elem)
                assert np.array_equal(a @ s, s @ a)
                assert row[m] == 0.0, (cand.label, elem.label)
                n_disjoint += 1
    assert n_disjoint > len(pool)


@pytest.mark.parametrize(
    "lat",
    [
        LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1),
        LatticeSpec(2, 2, j=1.0, u=8.0, nup=2, ndown=2),
        LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3),
    ],
    ids=["1x2", "2x2", "2x3"],
)
def test_selection_matches_per_candidate_oracle(lat):
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    eng = KRowEngine(state, ob)
    pool = enumerate_candidates(lat)
    for seed in [None, *range(50)]:
        order = range(len(pool)) if seed is None else make_rng(seed, "constraint-shuffle").permutation(len(pool))
        visit = [pool[i] for i in order]
        rows = eng.rows(visit)
        for n in range(1, ob.m + 1):
            cs = build_constraints(state, ob, n, shuffle_seed=seed, engine=eng)
            got = ([op.label for op in cs.ops], cs.independent, cs.rank, cs.provenance["n_rejected_pool"])
            assert got == greedy_selection(rows, visit, n, INDEPENDENCE_TOL), (seed, n)


def test_born_means_mixed_state_match_exact_rows():
    rho = _random_sector_density(MIXED_LATTICE, 32)
    ob = build_operator_basis(MIXED_LATTICE)
    cs = build_constraints(rho, ob, n_constraints=6)
    exact = k_matrix_exact(rho, ob, cs).values
    sampler = KSampler(rho, ob, cs, method="born")
    means = np.array([[probs @ w for w, probs in row] for row in sampler._spectral])
    np.testing.assert_allclose(means, exact, rtol=0, atol=1e-12)


def test_surrogate_variance_mixed_state_matches_dense_oracle():
    rho = _random_sector_density(MIXED_LATTICE, 33)
    ob = build_operator_basis(MIXED_LATTICE)
    cs = build_constraints(rho, ob, n_constraints=6)
    sampler = KSampler(rho, ob, cs, method="surrogate")
    s_dense = [_dense(rho.basis, e) for e in ob.elements]
    for n, cand in enumerate(cs.ops):
        a = _dense(rho.basis, cand)
        for m, s in enumerate(s_dense):
            want = observable_variance(rho, -1j * (a @ s - s @ a))
            assert abs(sampler._vars[n, m] - want) < 1e-12


def test_constraint_selection_rank_saturates_at_m_minus_1():
    lat = LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=ob.m)
    assert cs.n_constraints == ob.m
    assert cs.rank == ob.m - 1
    assert sum(cs.independent) == ob.m - 1
    assert cs.independent[: ob.m - 1] == [True] * (ob.m - 1)


def test_constraint_selection_small_pool_error():
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    with pytest.raises(ValueError, match="pool"):
        build_constraints(state, ob, n_constraints=9)  # pool has 8


def test_dimer_selection_has_independent_constraints():
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=4)
    assert cs.rank >= 2


def test_exact_reconstruction_2x3():
    lat = LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=ob.m)
    km = k_matrix_exact(state, ob, cs)
    res = reconstruct(km)
    assert not res.degenerate
    assert res.gap > 0
    d = parameter_distance(ob.coefficient_vector(), res.coefficients)
    assert d < 1e-8


def test_reconstruction_flags_degenerate_nullspace():
    lat = LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=5)
    km = k_matrix_exact(state, ob, cs)
    res = reconstruct(km)
    assert res.degenerate
    assert len(res.candidates) == 2


def test_reconstruct_rejects_zero_k():
    from qverify.hamlearn.kmatrix import KMatrix

    km = KMatrix(
        values=np.zeros((3, 4)),
        constraint_labels=["a", "b", "c"],
        basis_labels=list("wxyz"),
        mode="exact",
        shots_per_entry=None,
    )
    with pytest.raises(ValueError):
        reconstruct(km)


def test_parameter_distance_properties():
    rng = make_rng(3, "pd")
    a = rng.normal(size=6)
    assert parameter_distance(a, a) == 0.0
    assert parameter_distance(a, -a) == 0.0
    assert parameter_distance(a, 3.7 * a) < 1e-15
    b = rng.normal(size=6)
    assert parameter_distance(a, b) == parameter_distance(b, a)
    with pytest.raises(ValueError):
        parameter_distance(a, np.zeros(6))


def test_born_sampling_unbiased_and_consistent():
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=4)
    exact = k_matrix_exact(state, ob, cs).values
    sampler = KSampler(state, ob, cs, method="born")
    reps = [sampler.sample(400, seed=s).values for s in range(60)]
    mean = np.mean(reps, axis=0)
    # per-entry SE <= 1/sqrt(400*60); allow 5 sigma with a conservative bound
    assert np.max(np.abs(mean - exact)) < 5 * 1.0 / np.sqrt(400 * 60) * 4
    # determinism: same seed, same sample
    s1 = sampler.sample(123, seed=9).values
    s2 = sampler.sample(123, seed=9).values
    np.testing.assert_array_equal(s1, s2)


def test_surrogate_variance_matches_dense_oracle():
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    basis, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=4)
    sampler = KSampler(state, ob, cs, method="surrogate")
    for n, cand in enumerate(cs.ops):
        a = assemble_operator(basis, list(cand.terms)).toarray()
        for m, elem in enumerate(ob.elements):
            s = assemble_operator(basis, list(elem.terms)).toarray()
            o = -1j * (a @ s - s @ a)
            want = observable_variance(state, o)
            assert abs(sampler._vars[n, m] - want) < 1e-10


def test_sampled_reconstruction_error_scales_with_shots():
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=4)
    pts = learning_curve(
        state,
        ob,
        constraints=cs,
        shot_grid=[100, 1000, 10000],
        seeds=list(range(12)),
    )
    slope = fit_loglog_slope(pts)
    assert -0.8 < slope < -0.2
    assert pts[0].median_distance > pts[-1].median_distance


def test_learning_curve_constraint_grid_endpoint():
    lat = LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    pts = learning_curve(
        state,
        ob,
        constraint_grid=[5, 10, 15, 20],
        seeds=list(range(5)),
    )
    assert pts[-1].control == 20
    assert pts[-1].median_distance < 1e-8
    assert all(np.isfinite(p.median_distance) for p in pts)


def test_learning_curve_argument_validation():
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    with pytest.raises(ValueError):
        learning_curve(state, ob, seeds=[0])
    with pytest.raises(ValueError):
        learning_curve(
            state, ob, constraint_grid=[2], shot_grid=[10], seeds=[0]
        )


def test_k_matrix_sampled_wrapper_modes():
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=3)
    born = k_matrix_sampled(state, ob, cs, 500, seed=1, method="born")
    sur = k_matrix_sampled(state, ob, cs, 500, seed=1, method="surrogate")
    exact = k_matrix_exact(state, ob, cs)
    assert born.mode == "born" and sur.mode == "surrogate"
    assert born.shape == sur.shape == exact.values.shape
    # both noise models stay within a loose envelope of the exact values
    assert np.max(np.abs(born.values - exact.values)) < 0.5
    assert np.max(np.abs(sur.values - exact.values)) < 0.5
