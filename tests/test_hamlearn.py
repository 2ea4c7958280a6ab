"""Hamiltonian learning: operator basis, constraints, K matrix, recovery."""

import numpy as np
import pytest

from oracle_helpers import (
    constraint_terms,
    greedy_selection,
    monomial_k_row,
    observable_variance,
    term_modes,
    thermal_state,
)
from qverify.hamlearn import (
    KRowEngine,
    KSampler,
    build_constraints,
    build_operator_basis,
    enumerate_candidates,
    k_matrix_exact,
    learning_curve,
    parameter_distance,
    reconstruct,
    solution_distance,
)
from qverify.hamlearn import kmatrix
from qverify.hamlearn.constraints import INDEPENDENCE_TOL
from qverify.hamlearn.curves import fit_loglog_slope
from qverify.qsim import (
    FermionBasis,
    LatticeSpec,
    QuantumState,
    apply_terms,
    assemble_operator,
    ground_state,
    hubbard_terms,
)
from qverify.rng import make_rng


def _ground(lat):
    basis = FermionBasis(lat)
    h = assemble_operator(basis, hubbard_terms(lat))
    energy, state = ground_state(h, basis)
    return basis, h, energy, state


def _dense(basis, terms):
    return assemble_operator(basis, list(terms)).toarray()


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
        a = _dense(basis, constraint_terms(cand))
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
        a = _dense(basis, constraint_terms(cand))
        row = eng.rows([cand])[0]
        for m, elem in enumerate(ob.elements):
            s = _dense(basis, elem.terms)
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
        k = k_matrix_exact(state, ob, cs)
        c_true = ob.coefficient_vector()
        assert np.max(np.abs(k @ c_true)) < 1e-9


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


@pytest.mark.parametrize("rank", [None, 3])
def test_k_rows_mixed_state_match_dense_trace(rank):
    rho = _random_sector_density(MIXED_LATTICE, 31, rank)
    ob = build_operator_basis(MIXED_LATTICE)
    eng = KRowEngine(rho, ob)
    s_dense = [_dense(rho.basis, e.terms) for e in ob.elements]
    for cand in enumerate_candidates(MIXED_LATTICE):
        a = _dense(rho.basis, constraint_terms(cand))
        want = [2.0 * np.imag(np.trace(a @ s @ rho.data)) for s in s_dense]
        np.testing.assert_allclose(eng.rows([cand])[0], want, rtol=0, atol=1e-12)


def test_candidate_terms_are_symmetrized_current_densities():
    # the engine reads a candidate off (bond, spin, k_site, k_spin) and
    # applies it as d * J; the oracle applies its 8 monomials
    lat = LatticeSpec(2, 3, nup=2, ndown=1)
    basis = FermionBasis(lat)
    vec = make_rng(35, "candidate-vec").normal(size=(basis.dim, 2)) @ [1, 1j]
    eng = KRowEngine(QuantumState(vec / np.linalg.norm(vec), basis), build_operator_basis(lat))
    for cand in enumerate_candidates(lat):
        want = apply_terms(basis, constraint_terms(cand), vec)
        np.testing.assert_allclose(eng.apply(cand, vec), want, rtol=0, atol=1e-14, err_msg=cand.label)


@pytest.mark.parametrize(
    "lat",
    [
        LatticeSpec(1, 2, nup=1, ndown=1),
        LatticeSpec(2, 2, nup=2, ndown=2),
        LatticeSpec(2, 3, nup=1, ndown=1),
        LatticeSpec(2, 3, nup=3, ndown=3),
    ],
    ids=["1x2-1+1", "2x2-2+2", "2x3-1+1", "2x3-3+3"],
)
def test_dense_and_support_match_monomial_oracle(lat):
    # the Born model eigensolves commutators of engine.dense(cop), and the
    # support decides which K entries are exact zeros
    basis = FermionBasis(lat)
    eng = KRowEngine(QuantumState(np.ones(basis.dim) / np.sqrt(basis.dim), basis), build_operator_basis(lat))
    for cand in enumerate_candidates(lat):
        terms = constraint_terms(cand)
        assert eng.dense(cand).tobytes() == _dense(basis, terms).tobytes(), cand.label
        assert eng.support(cand) == term_modes(terms), cand.label


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

    n_disjoint = 0
    for cand, row in zip(pool, rows):
        terms = constraint_terms(cand)
        a = _dense(state.basis, terms)
        for m, elem in enumerate(ob.elements):
            if not term_modes(terms) & term_modes(elem.terms):
                s = _dense(state.basis, elem.terms)
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
    exact = k_matrix_exact(rho, ob, cs)
    sampler = KSampler(KRowEngine(rho, ob), cs)
    means = np.array([[probs @ w for w, probs in row] for row in sampler._spectral])
    np.testing.assert_allclose(means, exact, rtol=0, atol=1e-12)


def test_surrogate_variance_mixed_state_matches_dense_oracle(monkeypatch):
    monkeypatch.setattr(kmatrix, "BORN_MAX_DIM", 0)  # the surrogate on a small sector
    rho = _random_sector_density(MIXED_LATTICE, 33)
    ob = build_operator_basis(MIXED_LATTICE)
    cs = build_constraints(rho, ob, n_constraints=6)
    sampler = KSampler(KRowEngine(rho, ob), cs)
    s_dense = [_dense(rho.basis, e.terms) for e in ob.elements]
    for n, cand in enumerate(cs.ops):
        a = _dense(rho.basis, constraint_terms(cand))
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
    assert len(res.null_space) == 1
    assert res.gap > 0
    d = parameter_distance(ob.coefficient_vector(), res.coefficients)
    assert d < 1e-8
    # a unique solution's distance is the sign-gauged vector distance, bit for bit
    assert solution_distance(ob.coefficient_vector(), res) == d


def test_reconstruction_flags_degenerate_nullspace():
    lat = LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=5)
    km = k_matrix_exact(state, ob, cs)
    res = reconstruct(km)
    assert len(res.null_space) == ob.m - 5 == 15
    np.testing.assert_allclose(res.null_space @ res.null_space.T, np.eye(15), atol=1e-12)
    # the reconstruction is one vector of the null space, and the truth lies in it
    assert np.linalg.norm(res.null_space @ res.coefficients) == pytest.approx(1.0, abs=1e-12)
    assert solution_distance(ob.coefficient_vector(), res) < 1e-10


def _k_with_singular_values(sig, m, seed):
    rng = make_rng(seed, "synthetic-k")
    u, _ = np.linalg.qr(rng.normal(size=(len(sig), len(sig))))
    v, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return (u * sig) @ v[:, : len(sig)].T


def test_null_space_uses_the_selection_tolerance():
    # a kept direction at 1e-7 sigma_max is independent by selection's
    # INDEPENDENCE_TOL (1e-8), so only the exact null direction is null
    k = _k_with_singular_values(np.array([1.0, 0.5, 0.3, 0.1, 1e-7]), 6, 1)
    res = reconstruct(k)
    assert len(res.null_space) == 1
    assert abs(res.null_space[0] @ res.coefficients) == pytest.approx(1.0, abs=1e-12)
    # one at 1e-9 sigma_max is dependent, and joins the exact null
    res = reconstruct(_k_with_singular_values(np.array([1.0, 0.5, 0.3, 0.1, 1e-9]), 6, 1))
    assert len(res.null_space) == 2


def test_solution_distance_projects_onto_the_null_space():
    k = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    res = reconstruct(k)
    assert len(res.null_space) == 2
    assert solution_distance([0.0, 0.0, 3.0, -4.0], res) < 1e-15
    assert solution_distance([1.0, 0.0, 1.0, 0.0], res) == pytest.approx(np.sqrt(0.5), abs=1e-15)
    assert solution_distance([0.0, -2.0, 0.0, 0.0], res) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        solution_distance(np.zeros(4), res)
    with pytest.raises(ValueError):
        solution_distance(np.ones(3), res)


def test_reconstruct_rejects_zero_k():
    with pytest.raises(ValueError):
        reconstruct(np.zeros((3, 4)))


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
    exact = k_matrix_exact(state, ob, cs)
    sampler = KSampler(KRowEngine(state, ob), cs)
    reps = [sampler.sample(400, seed=s) for s in range(60)]
    mean = np.mean(reps, axis=0)
    # per-entry SE <= 1/sqrt(400*60); allow 5 sigma with a conservative bound
    assert np.max(np.abs(mean - exact)) < 5 * 1.0 / np.sqrt(400 * 60) * 4
    # determinism: same seed, same sample
    s1 = sampler.sample(123, seed=9)
    s2 = sampler.sample(123, seed=9)
    np.testing.assert_array_equal(s1, s2)


def test_surrogate_variance_matches_dense_oracle(monkeypatch):
    monkeypatch.setattr(kmatrix, "BORN_MAX_DIM", 0)  # the surrogate on a small sector
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    basis, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=4)
    sampler = KSampler(KRowEngine(state, ob), cs)
    for n, cand in enumerate(cs.ops):
        a = _dense(basis, constraint_terms(cand))
        for m, elem in enumerate(ob.elements):
            s = _dense(basis, elem.terms)
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


def test_learning_curve_argument_validation(monkeypatch):
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)

    # every argument is checked before the one engine is built
    def engine(*args):
        raise AssertionError("engine built before the arguments were checked")

    monkeypatch.setattr("qverify.hamlearn.curves.KRowEngine", engine)
    for kwargs in (
        {},
        {"constraint_grid": [2], "shot_grid": [10]},
        {"constraint_grid": [0, 2]},
        {"constraint_grid": []},
        {"shot_grid": [100]},  # no ConstraintSet
        {"constraint_grid": [2], "seeds": []},
    ):
        with pytest.raises(ValueError):
            learning_curve(state, ob, **{"seeds": [0], **kwargs})


def test_k_matrix_sampled_wrapper_modes(monkeypatch):
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    _, _, _, state = _ground(lat)
    ob = build_operator_basis(lat)
    cs = build_constraints(state, ob, n_constraints=3)
    eng = KRowEngine(state, ob)
    born = KSampler(eng, cs)  # Born on a sector of at most BORN_MAX_DIM states
    monkeypatch.setattr(kmatrix, "BORN_MAX_DIM", eng.fbasis.dim - 1)
    sur = KSampler(eng, cs)  # the surrogate above it
    assert born._spectral is not None and sur._spectral is None
    born, sur = born.sample(500, seed=1), sur.sample(500, seed=1)
    exact = k_matrix_exact(state, ob, cs, engine=eng)
    assert born.shape == sur.shape == exact.shape
    # both noise models stay within a loose envelope of the exact values
    assert np.max(np.abs(born - exact)) < 0.5
    assert np.max(np.abs(sur - exact)) < 0.5
