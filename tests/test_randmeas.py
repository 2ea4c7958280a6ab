"""Randomized-measurement toolbox tests."""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from oracle_helpers import (
    bitstring_counts,
    clifford_index,
    dense_fmax,
    dense_overlap,
    hamming_kernel,
    marginal_probabilities,
    oracle_matches,
    string_cross_terms,
    string_fmax,
    string_overlap,
    string_purity_terms,
)
from qverify.qsim import (
    QuantumState,
    QubitBasis,
    ghz_state,
    random_density_state,
    random_pure_state,
    zero_state,
)
from qverify.randmeas import (
    CLIFFORD_TABLE,
    NUM_CLIFFORDS,
    MeasurementSetting,
    RandMeasDataset,
    collect,
    estimate_fmax,
    estimate_overlap,
    exact_mode_overlap,
    jackknife,
    sample_settings,
    scaling_probe,
)
from qverify.randmeas.cliffords import _generate_table
from qverify.randmeas.estimators import (
    _cross_terms,
    _dense_sums,
    _hamming_sums,
    _pairwise_sums,
    _purity_terms,
)
from qverify.repostore import read_dataset_text, serialize_dataset
from qverify.rng import make_rng


class TestCliffordTable:
    def test_exactly_24_elements(self):
        assert NUM_CLIFFORDS == 24
        assert CLIFFORD_TABLE.shape == (24, 2, 2)

    def test_all_unitary(self):
        for u in CLIFFORD_TABLE:
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_pairwise_distinct_up_to_phase(self):
        for i in range(24):
            for j in range(i + 1, 24):
                tr = abs(np.trace(CLIFFORD_TABLE[i].conj().T @ CLIFFORD_TABLE[j]))
                assert tr < 2.0 - 1e-6

    def test_closed_under_multiplication(self):
        for i in range(24):
            for j in range(24):
                clifford_index(CLIFFORD_TABLE[i] @ CLIFFORD_TABLE[j])

    def test_frame_potential_is_two(self):
        # (1/24^2) sum |Tr(U^dag V)|^4 == 2 iff the set is a 2-design
        acc = 0.0
        for u in CLIFFORD_TABLE:
            for v in CLIFFORD_TABLE:
                acc += abs(np.trace(u.conj().T @ v)) ** 4
        assert abs(acc / 24**2 - 2.0) < 1e-9

    def test_identity_in_table(self):
        idx = clifford_index(np.eye(2))
        assert np.allclose(CLIFFORD_TABLE[idx], np.eye(2), atol=1e-12)

    def test_generation_rule_reproducible(self):
        again = _generate_table()
        assert again.tobytes() == CLIFFORD_TABLE.tobytes()


class TestSampleSettings:
    def test_clifford_uniformity(self):
        n_u = 240_000
        settings = sample_settings(1, n_u, seed=7)
        freq = np.bincount(
            [s.clifford_indices[0] for s in settings], minlength=24
        ) / n_u
        sigma = np.sqrt((1 / 24) * (23 / 24) / n_u)
        assert np.all(np.abs(freq - 1 / 24) < 5 * sigma)

    def test_deterministic_given_seed(self):
        a = sample_settings(3, 20, seed=11)
        b = sample_settings(3, 20, seed=11)
        assert all(x.clifford_indices == y.clifford_indices for x, y in zip(a, b))
        ha = sample_settings(2, 5, seed=11, ensemble="haar")
        hb = sample_settings(2, 5, seed=11, ensemble="haar")
        for x, y in zip(ha, hb):
            for mx, my in zip(x.matrices, y.matrices):
                assert np.array_equal(mx, my)

    def test_prefix_stable(self):
        short = sample_settings(2, 10, seed=3)
        long = sample_settings(2, 100, seed=3)
        assert all(
            s.clifford_indices == l.clifford_indices for s, l in zip(short, long)
        )

    def test_haar_first_entry_moment(self):
        # Haar mean of |U00|^2: integrate cos^2(t/2) against the sin(t)/2
        # density; quadrature pins the oracle value 1/2.
        t = np.linspace(0.0, np.pi, 20001)
        oracle = np.trapezoid(np.cos(t / 2) ** 2 * np.sin(t) / 2, t)
        assert abs(oracle - 0.5) < 1e-8
        draws = sample_settings(1, 100_000, seed=5, ensemble="haar")
        vals = np.array([abs(s.matrices[0][0, 0]) ** 2 for s in draws])
        # Var |U00|^2 = 1/3 - 1/4 = 1/12 for the 2x2 Haar ensemble
        sigma = np.sqrt(1 / 12 / len(vals))
        assert abs(vals.mean() - oracle) < 5 * sigma

    def test_haar_matrices_unitary(self):
        for s in sample_settings(2, 50, seed=9, ensemble="haar"):
            for m in s.matrices:
                assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-10)

    def test_explicit_setting_validation(self):
        with pytest.raises(ValueError):
            MeasurementSetting(matrices=(np.array([[1.0, 1.0], [0.0, 1.0]]),))
        phased = np.exp(0.7j) * np.eye(2)
        s = MeasurementSetting(matrices=(phased,))
        assert np.allclose(s.matrices[0], np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("index", [5.0, True, np.float64(3.0)])
    def test_clifford_index_that_is_not_an_integer_is_refused(self, index):
        with pytest.raises(ValueError, match="is not an integer"):
            MeasurementSetting(clifford_indices=(2, index))

    def test_numpy_integer_clifford_indices_round_trip(self):
        settings = [MeasurementSetting(clifford_indices=(np.int64(5), np.int64(23)))]
        ds = RandMeasDataset("d", "s", 2, settings, [np.array([[0, 1], [3, 1]], dtype=np.int64)], 2)
        back, _, _ = read_dataset_text(serialize_dataset(ds))
        assert back.settings[0].clifford_indices == (5, 23)
        assert serialize_dataset(back) == serialize_dataset(ds)

    def test_fields_are_keyword_only(self):
        # a setting is its position in a list: a leading id is refused, not
        # taken for the Clifford indices
        with pytest.raises(TypeError):
            MeasurementSetting(0, clifford_indices=(5,))


def _setting_pool(n: int, seed: int) -> list[MeasurementSetting]:
    """Settings on ``n`` qubits: Clifford-indexed, the same unitaries as
    explicit matrices under random global phases, one index moved, a Haar
    draw, the Haar draw under random phases, and the Haar draw with its
    first unitary turned by 1e-3 rad."""
    rng = make_rng(seed, "setting-pool", n)
    (cliff,) = sample_settings(n, 1, seed=seed)
    (haar,) = sample_settings(n, 1, seed=seed, ensemble="haar")
    idx = cliff.clifford_indices
    moved = idx[:-1] + ((idx[-1] + 1 + int(rng.integers(NUM_CLIFFORDS - 1))) % NUM_CLIFFORDS,)

    def phased(mats):
        return tuple(m * np.exp(2j * np.pi * rng.random()) for m in mats)

    turn = scipy.linalg.expm(-1e-3j * np.array([[0, 1], [1, 0]]))
    return [
        cliff,
        MeasurementSetting(clifford_indices=tuple(np.int64(i) for i in idx)),
        MeasurementSetting(matrices=phased(CLIFFORD_TABLE[list(idx)])),
        MeasurementSetting(clifford_indices=moved),
        MeasurementSetting(matrices=phased(CLIFFORD_TABLE[list(moved)])),
        haar,
        MeasurementSetting(matrices=phased(haar.matrices)),
        MeasurementSetting(matrices=(haar.matrices[0] @ turn, *haar.matrices[1:])),
    ]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestSettingMatches:
    def test_matches_the_restricted_copy_oracle(self):
        # the stored entries of the compared qubits decide, as rebuilding the
        # settings on those qubits and normalizing their phases again did
        pool = [s for n in (1, 2, 3) for seed in (0, 1) for s in _setting_pool(n, seed)]
        qubit_sets = [None, (0,), (1,), (2,), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
        qubit_sets += [(0, 0), (1, 1), (-1,), (0, -1), (3,), (2, 3)]
        seen, differ = set(), []
        for a, b in itertools.product(pool, repeat=2):
            for qubits in qubit_sets:
                want = _outcome(oracle_matches, a, b, qubits)
                got = _outcome(a.matches, b, qubits)
                seen.add(want[0] if want[0] != "value" else want[1])
                if got != want or type(got[1]) is not type(want[1]):
                    differ.append((a, b, qubits, want, got))
        assert differ == []
        assert seen == {True, False, "ValueError"}


class TestCollect:
    def test_identity_settings_on_zero_state(self):
        ident = clifford_index(np.eye(2))
        settings = [MeasurementSetting(clifford_indices=(ident, ident, ident))]
        ds = collect(zero_state(3), settings, 100, seed=0)
        assert len(ds.counts) == 1 and ds.counts[0].dtype == np.int64
        assert ds.counts[0].tolist() == [[0, 100]]

    def test_dataset_invariants(self):
        settings = sample_settings(2, 8, seed=1)
        ds = collect(ghz_state(2), settings, 64, seed=2)
        ds.validate()
        assert ds.n_settings == 8
        assert all(c[:, 1].sum() == 64 for c in ds.counts)

    def test_empirical_matches_exact_probabilities(self):
        state = random_pure_state(2, make_rng(0, "chi2-state"))
        settings = sample_settings(2, 1, seed=4)
        shots = 40_000
        ds = collect(state, settings, shots, seed=5)
        probs = state.rotated(settings[0].unitaries()).probabilities()
        chi2 = 0.0
        dof = 0
        for i, p in enumerate(probs):
            exp = p * shots
            if exp < 5:
                continue
            obs = dict(ds.counts[0].tolist()).get(i, 0)
            chi2 += (obs - exp) ** 2 / exp
            dof += 1
        assert chi2 < (dof - 1) + 5 * np.sqrt(2 * (dof - 1))

    def test_collect_deterministic(self):
        settings = sample_settings(2, 5, seed=8)
        a = collect(ghz_state(2), settings, 32, seed=9)
        b = collect(ghz_state(2), settings, 32, seed=9)
        assert len(a.counts) == len(b.counts)
        assert all(np.array_equal(x, y) for x, y in zip(a.counts, b.counts))


class TestHammingKernel:
    @pytest.mark.parametrize(
        "s,t,want",
        [("00", "00", 1.0), ("01", "10", 0.25), ("0", "1", -0.5)],
    )
    def test_values(self, s, t, want):
        assert hamming_kernel(s, t) == want

    def test_single_bit_row_sums(self):
        # sum over s' of (-2)^(-D) = 1 - 1/2 = 1/2 pins the kernel orientation
        for s in ("0", "1"):
            assert sum(hamming_kernel(s, t) for t in ("0", "1")) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_kernel("00", "0")


class TestExactMode:
    def test_zero_state_pair_single_qubit(self):
        est = exact_mode_overlap(zero_state(1), zero_state(1))
        assert est.n_settings == 24
        assert abs(est.value - 1.0) < 1e-12

    def test_maximally_mixed_self_overlap(self):
        rho = QuantumState(np.eye(2) / 2, QubitBasis(1))
        est = exact_mode_overlap(rho, rho)
        assert abs(est.value - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_dense_trace(self, n):
        rng = make_rng(42, "exact-mode", n)
        for _ in range(5):
            s1 = random_density_state(n, rng)
            s2 = random_pure_state(n, rng)
            want = dense_overlap(s1.as_density(), s2.as_density())
            est = exact_mode_overlap(s1, s2)
            assert est.n_settings == 24**n
            assert abs(est.value - want) < 1e-12

    def test_marginal_consistency(self):
        # the sampled mode on the reduced states equals marginalizing the
        # full-register exact distributions under the same subsystem
        # settings, padded with the identity on the other qubits
        rng = make_rng(6, "marginal")
        s1 = random_pure_state(3, rng)
        s2 = random_density_state(3, rng)
        sub = (0, 2)
        for ensemble in ("clifford", "haar"):
            reduced_path = exact_mode_overlap(s1, s2, ensemble, subsystem=sub, n_settings=25, seed=13)
            terms = []
            kernel = np.array([[1.0, -0.5, -0.5, 0.25],
                               [-0.5, 1.0, 0.25, -0.5],
                               [-0.5, 0.25, 1.0, -0.5],
                               [0.25, -0.5, -0.5, 1.0]])
            for s in sample_settings(len(sub), 25, seed=13, ensemble=ensemble):
                padded = [np.eye(2)] * 3
                for q, u in zip(sub, s.unitaries()):
                    padded[q] = u
                p1 = marginal_probabilities(s1.rotated(padded).probabilities(), 3, sub)
                p2 = marginal_probabilities(s2.rotated(padded).probabilities(), 3, sub)
                terms.append(4.0 * (p1 @ kernel @ p2))
            assert reduced_path.n_settings == 25
            assert abs(reduced_path.value - np.mean(terms)) < 1e-12

    def test_monte_carlo_fallback_has_error_bar(self):
        s1 = random_pure_state(1, make_rng(1, "mc"))
        est = exact_mode_overlap(s1, s1, n_settings=200, seed=3)
        assert est.std_error is not None
        assert abs(est.value - 1.0) < 5 * est.std_error + 1e-9


class TestJackknife:
    def test_mean_error_is_the_standard_error_of_the_mean(self):
        terms = make_rng(5, "jackknife").normal(size=40)
        value, se = jackknife(float, terms)
        assert value == float(terms.mean())
        assert abs(se - terms.std(ddof=1) / np.sqrt(terms.size)) < 1e-14

    def test_one_unit_has_no_error(self):
        value, se = jackknife(float, [0.7])
        assert value == 0.7
        assert np.isnan(se)

    def test_non_finite_leave_one_out_value_gives_nan(self):
        def ratio(a, b):
            return a / b if b else float("inf")

        # leaving out the first unit leaves a zero denominator
        value, se = jackknife(ratio, [1.0, 2.0, 3.0], [3.0, 0.0, 0.0])
        assert value == 2.0
        assert np.isnan(se)


class TestEstimateOverlap:
    def test_orthogonal_states(self):
        s0, s1 = zero_state(1), QuantumState(np.array([0.0, 1.0]), QubitBasis(1))
        settings = sample_settings(1, 200, seed=21)
        d0 = collect(s0, settings, 100, seed=22, device_id="a")
        d1 = collect(s1, settings, 100, seed=23, device_id="b")
        est = estimate_overlap(d0, d1)
        assert abs(est.value) < 5 * est.std_error

    def test_random_four_qubit_pair(self):
        rng = make_rng(30, "pair4")
        s1 = random_pure_state(4, rng)
        s2 = random_density_state(4, rng)
        want = dense_overlap(s1.as_density(), s2.as_density())
        settings = sample_settings(4, 200, seed=31)
        d1 = collect(s1, settings, 400, seed=32, device_id="a")
        d2 = collect(s2, settings, 400, seed=33, device_id="b")
        est = estimate_overlap(d1, d2)
        assert abs(est.value - want) < 5 * est.std_error

    def test_overlap_unbiased_over_dataset_draws(self):
        rng = make_rng(3, "overlap-bias")
        s1 = random_pure_state(2, rng)
        s2 = random_density_state(2, rng)
        exact = dense_overlap(s1.as_density(), s2.as_density())
        vals = []
        for rep in range(1000):
            settings = sample_settings(2, 10, seed=3000 + rep)
            d1 = collect(s1, settings, 8, seed=4000 + rep, device_id="a")
            d2 = collect(s2, settings, 8, seed=5000 + rep, device_id="b")
            vals.append(estimate_overlap(d1, d2).value)
        vals = np.asarray(vals)
        sem = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) < 5 * sem

    def test_settings_mismatch_rejected(self):
        d1 = collect(zero_state(1), sample_settings(1, 5, seed=1), 10, seed=2)
        d2 = collect(zero_state(1), sample_settings(1, 5, seed=99), 10, seed=2)
        with pytest.raises(ValueError):
            estimate_overlap(d1, d2)

    def test_a_mismatch_is_named_by_its_position(self):
        settings = sample_settings(1, 4, seed=1)
        moved = MeasurementSetting(clifford_indices=((settings[2].clifford_indices[0] + 1) % NUM_CLIFFORDS,))
        other = [*settings[:2], moved, *settings[3:]]
        d1 = collect(zero_state(1), settings, 10, seed=2)
        d2 = collect(zero_state(1), other, 10, seed=3)
        with pytest.raises(ValueError, match="^settings differ at position 2$"):
            estimate_overlap(d1, d2)

    def test_subsystem_settings_only_need_to_match_there(self):
        full = sample_settings(2, 6, seed=40)
        other = [
            MeasurementSetting(clifford_indices=(s.clifford_indices[0], 0))
            for s in full
        ]
        d1 = collect(ghz_state(2), full, 16, seed=41, device_id="a")
        d2 = collect(ghz_state(2), other, 16, seed=42, device_id="b")
        estimate_overlap(d1, d2, subsystem=(0,))
        with pytest.raises(ValueError):
            estimate_overlap(d1, d2)

    def test_reloaded_copy_is_the_same_record(self):
        # a copy read back from its file is the same data as the original:
        # both estimators give the purity U-statistic, not the cross product
        # biased by same-shot pairs
        ds = collect(ghz_state(4), sample_settings(4, 200, seed=50), 64, seed=51, device_id="a")
        copy, _, _ = read_dataset_text(serialize_dataset(ds))
        assert copy is not ds
        for sub in (None, (0, 2)):
            purity = estimate_overlap(ds, ds, sub)
            assert estimate_overlap(ds, copy, sub) == purity
            assert estimate_overlap(copy, ds, sub) == purity
            assert estimate_fmax(ds, copy, sub).overlap == purity.value


class TestEstimatePurity:
    def test_two_shot_handcrafted_value(self):
        # shots {0,1} in one setting: ordered distinct pairs give -1/2 each,
        # so the single-qubit U-statistic is 2 * (-1/2) = -1
        ident = clifford_index(np.eye(2))
        ds = RandMeasDataset(
            device_id="d",
            state_label="s",
            num_qubits=1,
            settings=[MeasurementSetting(clifford_indices=(ident,))],
            counts=[np.array([[0, 1], [1, 1]], dtype=np.int64)],
            shots_per_setting=2,
        )
        est = estimate_overlap(ds, ds)
        assert est.value == -1.0

    def test_two_shot_unbiased(self):
        # settings are part of the dataset draw: redraw them every repetition
        # so the mean targets the full ensemble average, i.e. the exact purity
        state = random_pure_state(2, make_rng(2, "purity-state"))
        exact = dense_overlap(state.as_density(), state.as_density())
        vals = []
        for rep in range(400):
            settings = sample_settings(2, 30, seed=500 + rep)
            ds = collect(state, settings, 2, seed=1000 + rep)
            vals.append(estimate_overlap(ds, ds).value)
        vals = np.asarray(vals)
        sem = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) < 5 * sem

    def test_single_shot_rejected(self):
        ds = collect(zero_state(1), sample_settings(1, 3, seed=1), 1, seed=2)
        with pytest.raises(ValueError):
            estimate_overlap(ds, ds)

    def test_self_overlap_routes_to_purity(self):
        # a copy with the same device id and equal counts is the same record
        ds = collect(ghz_state(2), sample_settings(2, 10, seed=3), 16, seed=4)
        copy = replace(ds, counts=[c.copy() for c in ds.counts])
        assert estimate_overlap(ds, ds) == estimate_overlap(ds, copy)


class TestEstimateFmax:
    def test_same_state_independent_collections(self):
        state = ghz_state(3)
        settings = sample_settings(3, 150, seed=60)
        d1 = collect(state, settings, 128, seed=61, device_id="a")
        d2 = collect(state, settings, 128, seed=62, device_id="b")
        est = estimate_fmax(d1, d2)
        assert abs(est.fmax - 1.0) < 5 * est.se_fmax
        assert not est.unreliable

    def test_exactly_symmetric(self):
        settings = sample_settings(2, 20, seed=70)
        d1 = collect(ghz_state(2), settings, 32, seed=71, device_id="a")
        d2 = collect(plus_times_zero(), settings, 32, seed=72, device_id="b")
        assert estimate_fmax(d1, d2) == estimate_fmax(d2, d1)

    def test_pure_state_matches_uhlmann(self):
        # with one pure state, F_max reduces to the Uhlmann fidelity
        rng = make_rng(8, "uhlmann")
        psi = random_pure_state(2, rng)
        rho = random_density_state(2, rng)
        o = exact_mode_overlap(psi, rho).value
        p1 = exact_mode_overlap(psi, psi).value
        p2 = exact_mode_overlap(rho, rho).value
        fmax = o / max(p1, p2)
        sq = scipy.linalg.sqrtm(psi.as_density())
        inner = sq @ rho.as_density() @ sq
        uhlmann = float(np.real(np.trace(scipy.linalg.sqrtm(inner)))) ** 2
        assert abs(fmax - uhlmann) < 1e-8

    def test_ghz10_z_error_subsystem_profile(self):
        plain = ghz_state(10)
        flipped = QuantumState(plain.data.copy(), plain.basis)
        flipped.data[-1] *= -1.0  # Z on one qubit flips the |1...1> amplitude
        settings = sample_settings(10, 80, seed=80)
        d1 = collect(plain, settings, 64, seed=81, device_id="a")
        d2 = collect(flipped, settings, 64, seed=82, device_id="b")
        prev = None
        for k in range(1, 11):
            sub = tuple(range(k))
            est = estimate_fmax(d1, d2, subsystem=sub)
            want = dense_fmax(
                plain.reduced(sub).as_density(), flipped.reduced(sub).as_density()
            )
            assert abs(est.fmax - want) < 5 * est.se_fmax
            if prev is not None:
                assert want <= prev + 1e-12
            prev = want

    def test_ghz10_full_size_estimate_is_fast(self):
        settings = sample_settings(10, 500, seed=90)
        d1 = collect(ghz_state(10), settings, 512, seed=91, device_id="a")
        d2 = collect(ghz_state(10), settings, 512, seed=92, device_id="b")
        start = time.perf_counter()
        est = estimate_fmax(d1, d2)
        assert time.perf_counter() - start < 0.5
        assert abs(est.fmax - 1.0) < 5 * est.se_fmax

    def test_unreliable_flag_on_nonpositive_purity(self):
        ident = clifford_index(np.eye(2))
        def rigged(dev):
            return RandMeasDataset(
                device_id=dev,
                state_label="s",
                num_qubits=2,
                settings=[MeasurementSetting(clifford_indices=(ident, ident))],
                counts=[np.array([[0, 1], [1, 1]], dtype=np.int64)],
                shots_per_setting=2,
            )
        est = estimate_fmax(rigged("a"), rigged("b"))
        assert est.unreliable
        assert est.purity_1 < 0


class TestStringKeyedOracle:
    """The integer-array estimators equal the bitstring-keyed oracle bit for bit."""

    @pytest.mark.parametrize("ensemble", ["clifford", "haar"])
    def test_estimators_match_exactly(self, ensemble):
        rng = make_rng(14, "string-oracle", ensemble)
        ghz = ghz_state(3)
        states = (ghz, random_pure_state(3, rng), random_density_state(3, rng), ghz)
        settings = sample_settings(3, 12, seed=15, ensemble=ensemble)
        # the first and last datasets share device id and state label (a tie);
        # the copy has the first one's counts under another label
        ds = [
            collect(st, settings, 24, seed=16 + k, device_id=dev, state_label="s")
            for k, (st, dev) in enumerate(zip(states, "abca"))
        ]
        ds.append(replace(ds[0], state_label="t", counts=[c.copy() for c in ds[0].counts]))
        assert bitstring_counts(ds[0]) != bitstring_counts(ds[3])
        for sub in (None, (0,), (2, 0), (1, 2)):
            for d1 in ds:
                assert np.array_equal(_purity_terms(d1, sub), string_purity_terms(d1, sub))
                for d2 in ds:
                    assert estimate_overlap(d1, d2, sub) == string_overlap(d1, d2, sub)
                    assert estimate_fmax(d1, d2, sub) == string_fmax(d1, d2, sub)

    def test_tie_keeps_the_string_order_of_purities(self):
        ident = clifford_index(np.eye(2))
        settings = [MeasurementSetting(clifford_indices=(ident,))] * 3

        def dataset(rows):
            counts = [np.array(r, dtype=np.int64) for r in rows]
            return RandMeasDataset("d", "s", 1, settings, counts, 16)

        # "{'0': 10" sorts before "{'0': 9" although 9 < 10
        ten = dataset([[[0, 10], [1, 6]], [[0, 8], [1, 8]], [[0, 16]]])
        nine = dataset([[[0, 9], [1, 7]], [[0, 8], [1, 8]], [[0, 16]]])
        first = estimate_overlap(ten, ten).value
        assert first != estimate_overlap(nine, nine).value
        for a, b in ((ten, nine), (nine, ten)):
            est = estimate_fmax(a, b)
            assert est == string_fmax(a, b)
            assert est.purity_1 == first


@pytest.fixture(scope="module")
def suite_datasets() -> list[tuple[list[RandMeasDataset], list]]:
    """Datasets of the shapes this suite measures, grouped by shared settings,
    each group with the subsystems its tests take."""
    rng = make_rng(21, "kernel-forms")
    ident = clifford_index(np.eye(2))
    two_shot = RandMeasDataset(
        "d", "s", 1, [MeasurementSetting(clifford_indices=(ident,))],
        [np.array([[0, 1], [1, 1]], dtype=np.int64)], 2,
    )
    groups = [([two_shot], [None, (0,), ()])]
    for ensemble in ("clifford", "haar"):
        settings = sample_settings(3, 12, seed=15, ensemble=ensemble)
        states = (ghz_state(3), random_pure_state(3, rng), random_density_state(3, rng))
        ds = [collect(st, settings, 24, seed=30 + k, device_id=f"d{k}") for k, st in enumerate(states)]
        groups.append((ds, [None, (0,), (2, 0), (1, 2)]))
    plain = ghz_state(10)
    flipped = QuantumState(plain.data.copy(), plain.basis)
    flipped.data[-1] *= -1.0
    settings = sample_settings(10, 20, seed=80)
    ds = [collect(st, settings, 64, seed=81 + k, device_id=f"d{k}") for k, st in enumerate((plain, flipped))]
    groups.append((ds, [None, (0,), (9, 3, 5), tuple(range(7))]))
    settings = sample_settings(6, 20, seed=3)
    ds = [collect(ghz_state(6), settings, 512, seed=40 + k, device_id=f"d{k}") for k in range(2)]
    groups.append((ds, [None, (5,), (0, 1, 2), (4, 2, 0, 1, 3)]))
    return groups


def _hand_built_dataset(device: str, num_qubits: int, rows: list[list[list[int]]]) -> RandMeasDataset:
    settings = [
        MeasurementSetting(clifford_indices=tuple((u + q) % NUM_CLIFFORDS for q in range(num_qubits)))
        for u in range(len(rows))
    ]
    counts = [np.array(r, dtype=np.int64) for r in rows]
    ds = RandMeasDataset(device, "s", num_qubits, settings, counts, int(counts[0][:, 1].sum()))
    ds.validate()
    return ds


class TestHammingSums:
    """The integer kernel T_u per setting: its dense and pairwise forms agree,
    and both match exact rational arithmetic beyond the int64 range."""

    def test_dense_and_pairwise_forms_agree(self, suite_datasets):
        for ds, subsystems in suite_datasets:
            for sub in subsystems:
                n_a = ds[0].num_qubits if sub is None else len(sub)
                for d1 in ds:
                    for d2 in ds:
                        dense = _dense_sums(d1, d2, sub, n_a)
                        assert dense == _pairwise_sums(d1, d2, sub, n_a)
                        assert len(dense) == d1.n_settings
                        assert all(type(t) is int for t in dense)

    def test_dense_blocks_of_settings_agree(self, suite_datasets, monkeypatch):
        import qverify.randmeas.estimators as estimators

        ds, _ = suite_datasets[-1]
        whole = _dense_sums(ds[0], ds[1], None, 6)
        monkeypatch.setattr(estimators, "_DENSE_CELLS", 3 * 2**6)  # blocks of 3 settings
        assert _dense_sums(ds[0], ds[1], None, 6) == whole

    @pytest.mark.parametrize(
        "shots",
        [
            (2**31 + 5, 2**31 + 1),  # n_A + log2(N1 N2) >= 63: dense bound exceeded
            (2**32 + 7, 2**31 + 3),  # N1 N2 >= 2^63: the bins themselves leave int64
        ],
    )
    def test_huge_counts_match_the_fraction_oracle(self, shots):
        def rows(n, k):
            a, b = n // 3 + k, n // 5 - k
            return [[[0, a], [3, b], [5, n - a - b]], [[1, n - 7], [6, 7]], [[2, n]]]

        d1 = _hand_built_dataset("a", 3, rows(shots[0], 1))
        d2 = _hand_built_dataset("b", 3, rows(shots[1], 2))
        assert 3 + (shots[0] * shots[1]).bit_length() >= 63
        for sub in (None, (2, 0), (1,)):
            n_a = 3 if sub is None else len(sub)
            assert _hamming_sums(d1, d2, sub) == _pairwise_sums(d1, d2, sub, n_a)
            assert np.array_equal(_cross_terms(d1, d2, sub), string_cross_terms(d1, d2, sub))
            for d in (d1, d2):
                assert np.array_equal(_purity_terms(d, sub), string_purity_terms(d, sub))
            assert estimate_fmax(d1, d2, sub) == string_fmax(d1, d2, sub)

    def test_wide_register_matches_the_fraction_oracle(self):
        top = 2**40 - 1
        d1 = _hand_built_dataset("a", 40, [[[0, 3], [5, 2], [top, 1]], [[2**39, 6]], [[7, 1], [2**20, 5]]])
        d2 = _hand_built_dataset("b", 40, [[[0, 1], [top, 5]], [[3, 2], [2**39, 4]], [[2**20 + 7, 6]]])
        for sub in (None, (0, 39, 17), tuple(range(0, 40, 2))):
            assert np.array_equal(_cross_terms(d1, d2, sub), string_cross_terms(d1, d2, sub))
            for d in (d1, d2):
                assert np.array_equal(_purity_terms(d, sub), string_purity_terms(d, sub))
            assert estimate_fmax(d1, d2, sub) == string_fmax(d1, d2, sub)


class TestDatasetValidate:
    @pytest.mark.parametrize(
        "rows,match",
        [
            (np.array([[0, 1], [1, 1]], dtype=np.int32), "int64"),
            (np.array([0, 2], dtype=np.int64), "int64"),
            (np.array([[1, 1], [0, 1]], dtype=np.int64), "ascend"),
            (np.array([[0, 1], [0, 1]], dtype=np.int64), "ascend"),
            (np.array([[0, 1], [2, 1]], dtype=np.int64), "ascend"),
            (np.array([[-1, 1], [0, 1]], dtype=np.int64), "ascend"),
            (np.array([[0, 3], [1, -1]], dtype=np.int64), "negative"),
            (np.array([[0, 1], [1, 2]], dtype=np.int64), "sum"),
        ],
    )
    def test_rejects_malformed_counts(self, rows, match):
        ident = clifford_index(np.eye(2))
        setting = MeasurementSetting(clifford_indices=(ident,))
        ds = RandMeasDataset("d", "s", 1, [setting], [rows], 2)
        with pytest.raises(ValueError, match=match):
            ds.validate()


def plus_times_zero() -> QuantumState:
    v = np.zeros(4)
    v[0] = v[2] = 1 / np.sqrt(2)
    return QuantumState(v, QubitBasis(2))


class TestScalingProbe:
    def test_budget_monotone_in_target(self):
        tight = scaling_probe([2], 0.1, seeds=(0, 1, 2), n_m=32)
        loose = scaling_probe([2], 0.2, seeds=(0, 1, 2), n_m=32)
        assert loose.points[0].budget <= tight.points[0].budget

    def test_budget_grows_with_size(self):
        res = scaling_probe([1, 4], 0.1, seeds=(0, 1, 2), n_m=32)
        assert res.points[0].budget < res.points[1].budget

    def test_ghz_exponent_bounded(self):
        res = scaling_probe([2, 3, 4, 5, 6], 0.2, seeds=(0, 1, 2, 3, 4), n_m=64)
        assert res.exponent <= 1.2
        budgets = [p.budget for p in res.points]
        assert budgets == sorted(budgets) or res.exponent > 0

    def test_budget_cap(self):
        with pytest.raises(ValueError, match="budget cap"):
            scaling_probe([6], 1e-4, seeds=(0,), n_m=4, budget_cap=64)
