"""Seeded streams: the package's seeding against numpy's SeedSequence."""

from __future__ import annotations

import numpy as np
import pytest

from oracle_helpers import oracle_make_rng, oracle_make_rngs
from qverify.hamlearn import KRowEngine, KSampler, build_constraints, build_operator_basis, kmatrix
from qverify.qsim import FermionBasis, LatticeSpec, assemble_operator, ghz_state, ground_state, hubbard_terms
from qverify.randmeas import collect, sample_settings
from qverify.randmeas import dataset as randmeas_dataset
from qverify.randmeas import settings as randmeas_settings
from qverify.rng import child_seed, make_rng, make_rngs

# one to six entropy words: more than the pool's four among them
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**160 + 3]
PATHS = [(), ("verifier",), (3, "setting"), ("cli", 2**32 + 7, "delegate")]
INDICES = [0, 1, 2**32 - 1, 2**32, -1]  # the last two masked to 32 bits


def first_draws(rng: np.random.Generator) -> list:
    """The first draw of every kind the package takes, in one stream."""
    return [
        rng.random(),
        rng.integers(0, 24, size=3).tolist(),
        rng.integers(0, 2**63),
        rng.standard_normal(2).tolist(),
        rng.multinomial(512, [0.1, 0.2, 0.3, 0.4]).tolist(),
        rng.permutation(10).tolist(),
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
def test_single_stream_is_numpys(seed, path):
    assert first_draws(make_rng(seed, *path)) == first_draws(oracle_make_rng(seed, *path))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
def test_batch_streams_are_numpys(seed, path):
    got = [first_draws(rng) for rng in make_rngs(seed, *path, indices=INDICES)]
    assert got == [first_draws(oracle_make_rng(seed, *path, i)) for i in INDICES]
    assert got == [first_draws(make_rng(seed, *path, i)) for i in INDICES]


def test_batch_generators_are_fresh_and_stay_valid():
    rngs = list(make_rngs(7, "measure", indices=range(4)))
    assert len({id(r) for r in rngs}) == 4
    # drawn after every later generator was built, each still gives its own stream
    assert [first_draws(r) for r in rngs] == [first_draws(oracle_make_rng(7, "measure", i)) for i in range(4)]


def test_numpy_integer_seeds_and_indices_are_accepted():
    assert first_draws(make_rng(np.uint64(2**63 + 1), np.int32(4))) == first_draws(
        oracle_make_rng(2**63 + 1, 4)
    )
    (rng,) = make_rngs(np.int64(9), "x", indices=np.array([2**40 + 3]))
    assert first_draws(rng) == first_draws(oracle_make_rng(9, "x", 2**40 + 3))
    assert list(make_rngs(3, "none", indices=range(0))) == []


@pytest.mark.parametrize("seed", [7.9, "5", True, np.float64(3.0), np.bool_(True), None, 2.0])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    for build in (lambda: make_rng(seed, "x"), lambda: make_rngs(seed, "x", indices=[0]), lambda: child_seed(seed)):
        with pytest.raises(TypeError, match="seed must be an integer"):
            build()
    with pytest.raises(TypeError):
        sample_settings(2, 1, seed=seed)


def test_a_negative_seed_is_refused():
    for build in (lambda: make_rng(-1), lambda: make_rngs(np.int64(-3), indices=[0])):
        with pytest.raises(ValueError, match="non-negative"):
            build()


@pytest.mark.parametrize("parts", [{"path": (1.5,)}, {"path": (None,)}, {"indices": [0, 1.0]}, {"indices": ["1"]}])
def test_path_parts_and_indices_that_are_not_integers_are_refused(parts):
    with pytest.raises(TypeError):
        list(make_rngs(1, *parts.get("path", ()), indices=parts.get("indices", [0])))


# ---------------------------------------------------------------- callers against per-index oracle streams


@pytest.mark.parametrize("ensemble", ["clifford", "haar"])
def test_sample_settings_draws_each_setting_from_its_own_stream(monkeypatch, ensemble):
    got = sample_settings(3, 6, seed=11, ensemble=ensemble)
    monkeypatch.setattr(randmeas_settings, "make_rngs", oracle_make_rngs)
    want = sample_settings(3, 6, seed=11, ensemble=ensemble)
    assert [s.clifford_indices for s in got] == [s.clifford_indices for s in want]
    if ensemble == "haar":
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))


def test_collect_measures_each_setting_from_its_own_stream(monkeypatch):
    chosen = sample_settings(3, 5, seed=2)
    got = collect(ghz_state(3), chosen, 64, seed=2**33 + 1)
    monkeypatch.setattr(randmeas_dataset, "make_rngs", oracle_make_rngs)
    want = collect(ghz_state(3), chosen, 64, seed=2**33 + 1)
    assert [c.tolist() for c in got.counts] == [c.tolist() for c in want.counts]


@pytest.mark.parametrize("born", [True, False])
def test_ksampler_draws_each_entry_from_its_own_stream(monkeypatch, born):
    lat = LatticeSpec(1, 2, j=1.0, u=8.0, nup=1, ndown=1)
    basis = FermionBasis(lat)
    _, state = ground_state(assemble_operator(basis, hubbard_terms(lat)), basis)
    ob = build_operator_basis(lat)
    if not born:
        monkeypatch.setattr(kmatrix, "BORN_MAX_DIM", 0)  # the Gaussian surrogate
    sampler = KSampler(KRowEngine(state, ob), build_constraints(state, ob, n_constraints=3))
    assert (sampler._spectral is not None) == born
    got = sampler.sample(300, seed=5)
    monkeypatch.setattr(kmatrix, "make_rngs", oracle_make_rngs)
    np.testing.assert_array_equal(got, sampler.sample(300, seed=5))
