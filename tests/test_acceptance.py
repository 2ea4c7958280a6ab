"""Acceptance gates for the full toolchain, one test per shipping criterion.

Each test states its tolerance inline and runs end to end against the
public APIs only.  The heavy fixtures (3x4 Hubbard ground state, GHZ(6)
measurement datasets) are module-scoped so the lattice diagonalization
and data collection are paid once.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from qverify.hamlearn import (
    KRowEngine,
    build_constraints,
    build_operator_basis,
    k_matrix_exact,
    learning_curve,
    parameter_distance,
    reconstruct,
)
from qverify.hamlearn.curves import fit_loglog_slope
from qverify.qsim import (
    LatticeSpec,
    PauliTerm,
    QuantumState,
    QubitBasis,
    ghz_state,
    hubbard_ground_state,
    random_density_state,
    reduced_density,
    theta_state,
)
from qverify.randmeas import (
    collect,
    estimate_fmax,
    estimate_purity,
    exact_mode_overlap,
    sample_settings,
)
from qverify.repostore import (
    Repository,
    dataset_to_document,
    document_digest,
    fidelity_to_dict,
    serialize_dataset,
)
from qverify.rng import make_rng
from qverify.verifyproto import (
    MEASUREMENT_ROUND,
    ONE_TO_ONE,
    TEST_ROUND,
    TWO_TO_ONE,
    BasisGuessProver,
    HamiltonianInstance,
    HonestProver,
    MixedStateProver,
    WrongTableProver,
    commit,
    delegate_rounds,
    enumerate_functions,
    finish_round,
    keygen,
    minimal_clock_instance,
    verify_energy,
)
from qverify.verifyproto.protocol import HonestSession


def _non_increasing(values) -> bool:
    return all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def hubbard_3x4():
    """3x4 lattice at J=1, U=8, five particles per spin: ~627k-dim sector."""
    lat = LatticeSpec(3, 4, j=1.0, u=8.0, nup=5, ndown=5)
    energy, state = hubbard_ground_state(lat)
    op_basis = build_operator_basis(lat)
    engine = KRowEngine(state, op_basis)
    return lat, energy, state, op_basis, engine


@pytest.fixture(scope="module")
def ghz6_datasets():
    """Three simulated devices measuring GHZ(6) under shared settings."""
    n, n_u, n_m = 6, 500, 512
    state = ghz_state(n)
    settings = sample_settings(n, n_u, seed=505, ensemble="clifford")
    datasets = [
        collect(
            state,
            settings,
            n_m,
            seed=510 + i,
            device_id=f"device-{c}",
            state_label="ghz-6",
        )
        for i, c in enumerate("abc")
    ]
    return state, datasets


def test_01_exact_reconstruction_on_the_3x4_lattice(hubbard_3x4):
    """46 exact constraint rows pin the coupling vector to < 1e-6."""
    lat, energy, state, op_basis, engine = hubbard_3x4
    assert abs(energy - -8.02787828626918) < 1e-9
    assert op_basis.m == 46
    cs = build_constraints(state, op_basis, 46, engine=engine)
    km = k_matrix_exact(state, op_basis, cs, engine=engine)
    result = reconstruct(km)
    distance = parameter_distance(op_basis.coefficient_vector(), result.coefficients)
    assert distance < 1e-6


def test_02_median_distance_non_increasing_in_constraint_count(hubbard_3x4):
    """Exact-K learning curves are monotone from M/4 up to M on both lattices,
    with an exact endpoint, medians taken over 1000 selection shuffles."""
    seeds = list(range(1000))

    lat, _, state, op_basis, engine = hubbard_3x4
    points = learning_curve(
        state, op_basis, constraint_grid=[12, 42, 43, 44, 46], seeds=seeds, engine=engine
    )
    medians = [p.median_distance for p in points]
    assert _non_increasing(medians)
    assert medians[-1] < 1e-6

    lat23 = LatticeSpec(2, 3, j=1.0, u=4.0, nup=3, ndown=3)
    _, state23 = hubbard_ground_state(lat23)
    ob23 = build_operator_basis(lat23)
    assert ob23.m == 20
    points = learning_curve(
        state23, ob23, constraint_grid=[5, 16, 17, 18, 20], seeds=seeds
    )
    medians = [p.median_distance for p in points]
    assert _non_increasing(medians)
    assert medians[-1] < 1e-6


def test_03_shot_noise_scaling_slope():
    """Median error vs shots per constraint follows a -1/2 power law over
    two decades (20 noise seeds per point, 2x2 plaquette at half filling)."""
    lat = LatticeSpec(2, 2, j=1.0, u=8.0, nup=2, ndown=2)
    _, state = hubbard_ground_state(lat)
    op_basis = build_operator_basis(lat)
    constraints = build_constraints(state, op_basis, 24, shuffle_seed=2)
    points = learning_curve(
        state,
        op_basis,
        shot_grid=[100, 316, 1000, 3162, 10000],
        constraints=constraints,
        seeds=list(range(20)),
    )
    slope = fit_loglog_slope(points)
    assert abs(slope - (-0.5)) <= 0.15


def test_04_clifford_enumeration_matches_dense_overlap():
    """Averaging the estimator over every local-Clifford setting reproduces
    the dense trace overlap to 1e-12 on 50 random mixed-state pairs."""
    rng = make_rng(404, "acceptance", "pairs")
    checked = 0
    for n_a in (1, 2):
        for _ in range(25):
            s1 = random_density_state(n_a, rng)
            s2 = random_density_state(n_a, rng)
            exact = float(np.real(np.trace(s1.data @ s2.data)))
            est = exact_mode_overlap(s1, s2)
            assert est.std_error is None  # full enumeration, not a sample
            assert abs(est.value - exact) < 1e-12
            checked += 1
    assert checked == 50


def test_05_cross_device_ghz6_fidelity_recovery(ghz6_datasets):
    """Two devices, 500 settings x 512 shots: full-system fidelity within
    5 jackknife sigma of 1 and within 0.05 absolutely; every subsystem
    profile point within 5 sigma of the reduced-density value."""
    state, datasets = ghz6_datasets
    ds_a, ds_b = datasets[0], datasets[1]
    n = state.num_qubits

    for k in range(1, n + 1):
        sub = None if k == n else tuple(range(k))
        est = estimate_fmax(ds_a, ds_b, sub)
        rho = reduced_density(state.data, n, tuple(range(k)))
        overlap = float(np.real(np.trace(rho @ rho)))
        purity = float(np.real(np.trace(rho @ rho)))
        exact = overlap / max(purity, purity)
        assert abs(est.fmax - exact) <= 5 * est.se_fmax
        if k == n:
            assert abs(est.fmax - 1.0) < 0.05


def test_06_purity_estimator_unbiasedness():
    """Mean of 1000 independent purity estimates of one fixed 2-qubit mixed
    state sits within 5 sigma/sqrt(1000) of the dense trace, with the
    measurement settings redrawn for every repetition."""
    rho = random_density_state(2, make_rng(606, "acceptance", "mixed"))
    exact = float(np.real(np.trace(rho.data @ rho.data)))
    estimates = []
    for rep in range(1000):
        settings = sample_settings(2, 24, seed=rep, ensemble="clifford")
        ds = collect(rho, settings, 16, seed=100000 + rep)
        estimates.append(estimate_purity(ds).value)
    estimates = np.asarray(estimates)
    tol = 5 * estimates.std(ddof=1) / np.sqrt(estimates.size)
    assert abs(estimates.mean() - exact) <= tol


def test_07_trapdoor_function_family_census():
    """Exactly 24 bijective and 24 claw-structured keys, every invariant
    holding, enumerated in under a second."""
    t0 = time.perf_counter()
    ones, twos = enumerate_functions()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert len(ones) == 24
    assert len(twos) == 24
    assert len({k.label for k in ones + twos}) == 48

    seen = set()
    for key in ones:
        assert key.kind == ONE_TO_ONE
        assert sorted(key.table) == [0, 1, 2, 3]
        seen.add(key.table)
        for b in (0, 1):
            for x in (0, 1):
                y = key.apply(b, x)
                assert key.in_image(y)
                assert key.invert(y) == (b, x)
    assert len(seen) == 24  # all permutations distinct

    seen = set()
    for key in twos:
        assert key.kind == TWO_TO_ONE
        branch0, branch1 = key.table[:2], key.table[2:]
        assert len(set(branch0)) == 2 and len(set(branch1)) == 2
        image = set(branch0)
        assert set(branch1) == image  # both branches share one image set
        seen.add(key.table)
        for y in range(4):
            assert key.in_image(y) == (y in image)
            if y in image:
                x0, x1 = key.preimages(y)
                assert key.apply(0, x0) == y
                assert key.apply(1, x1) == y
            else:
                with pytest.raises(ValueError):
                    key.preimages(y)
    assert len(seen) == 24


def test_08_delegated_measurement_statistics_and_test_rounds():
    """Decoded frequencies track the Born law to TV <= 0.02 at 1e5 rounds
    for both bases across a 17-point theta grid, and the honest commitment
    passes the consistency audit for every one of the 48 keys."""
    thetas = np.linspace(0.0, np.pi, 17)
    n_rounds = 100000
    for basis in ("z", "x"):
        for i, theta in enumerate(thetas):
            state = theta_state(float(theta))
            seed = (800 if basis == "z" else 850) + i
            summary = delegate_rounds(state, basis, n_rounds, seed=seed)
            freq = np.array(
                [summary.decoded_counts[0], summary.decoded_counts[1]]
            ) / n_rounds
            if basis == "z":
                born = np.array([np.cos(theta) ** 2, np.sin(theta) ** 2])
            else:
                born = np.array(
                    [(1 + np.sin(2 * theta)) / 2, (1 - np.sin(2 * theta)) / 2]
                )
            tv = 0.5 * float(np.abs(freq - born).sum())
            assert tv <= 0.02

    # exhaustive audit: every outcome in the support of every committed
    # state satisfies the key's table, so no honest test round can fail
    probe = theta_state(0.8)
    ones, twos = enumerate_functions()
    n_atoms = 0
    for key in ones + twos:
        committed = commit(probe, 0, key.table)
        amplitudes = committed.state.data.reshape(2, 2, 4)
        for b in (0, 1):
            for x in (0, 1):
                for y in range(4):
                    if abs(amplitudes[b, x, y]) > 1e-14:
                        assert key.table[2 * b + x] == y
                        n_atoms += 1
    assert n_atoms == 192  # 48 keys x all four (b, x) inputs populated

    failures = 0
    for basis in ("z", "x"):
        summary = delegate_rounds(
            probe, basis, 20000, seed=880, round_type=TEST_ROUND
        )
        failures += summary.n_fail
    assert failures == 0


def test_09_minimal_seven_qubit_verification_end_to_end():
    """The 4-qubit history state commits into 7 qubits and plays rounds;
    on a 4-qubit XZ chain the honest prover is accepted with its energy
    estimate within 5 sigma of exact, while each baseline cheater is
    rejected in more than 90% of 1000-round sessions."""
    clock = minimal_clock_instance()
    assert clock.num_qubits == 4
    key = keygen("x", seed=9)
    committed = commit(clock.eta, 0, key.table)
    assert committed.state.num_qubits == 7
    session = HonestSession(committed, (), make_rng(9, "round"))
    transcript, _ = finish_round(TEST_ROUND, key, session)
    assert transcript.verdict is True

    terms = [PauliTerm(-1.0, "XXII"), PauliTerm(-1.0, "IXXI"), PauliTerm(-1.0, "IIXX")]
    terms += [PauliTerm(-0.5, "I" * i + "Z" + "I" * (3 - i)) for i in range(4)]
    instance = HamiltonianInstance(4, tuple(terms), -2.5, -1.85)
    w, v = np.linalg.eigh(instance.matrix())
    exact_energy = float(w[0])
    assert exact_energy < instance.threshold_yes  # a genuine yes-instance
    ground = QuantumState(v[:, 0], QubitBasis(4))

    result = verify_energy(instance, HonestProver(ground), 2000, 0.5, seed=909)
    assert result.commit_qubits == 7
    assert result.accepted
    assert abs(result.estimate - exact_energy) <= 5 * result.std_error

    for prover in (
        MixedStateProver(4),
        BasisGuessProver(ground),
        WrongTableProver(ground),
    ):
        rejected = sum(
            not verify_energy(instance, prover, 1000, 0.5, seed=s).accepted
            for s in range(40)
        )
        assert rejected / 40 > 0.9


def test_10_repository_round_trip_bit_identity(ghz6_datasets, tmp_path):
    """Serialize -> digest -> ingest -> compare across three devices gives
    exactly the numbers computed from the in-memory datasets: the file
    round trip perturbs no bits."""
    state, datasets = ghz6_datasets
    n = state.num_qubits
    repo = Repository(tmp_path / "repo")
    ids = []
    for ds in datasets:
        path = tmp_path / f"{ds.device_id}.json"
        path.write_text(serialize_dataset(ds))
        ds_id = repo.ingest(path)
        assert ds_id == document_digest(dataset_to_document(ds))
        ids.append(ds_id)

    fields = (
        "overlap",
        "purity_1",
        "purity_2",
        "fmax",
        "se_overlap",
        "se_purity_1",
        "se_purity_2",
        "se_fmax",
    )
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        direct = fidelity_to_dict(estimate_fmax(datasets[i], datasets[j]))
        via_repo = repo.compare(ids[i], ids[j])["estimates"][0]
        for field in fields:
            assert via_repo[field] == direct[field]

    subsystems = [tuple(range(k)) for k in range(1, n)] + [None]
    profile = repo.compare(ids[0], ids[1], subsystems=subsystems)["estimates"]
    for sub, via_repo in zip(subsystems, profile):
        direct = fidelity_to_dict(estimate_fmax(datasets[0], datasets[1], sub))
        for field in fields:
            assert via_repo[field] == direct[field]
