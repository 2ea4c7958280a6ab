"""Overlap, purity, and F_max estimators over randomized-measurement data.

Cross-device overlap uses the plain product of the two devices' empirical
frequencies (independent devices need no diagonal correction).  Same-device
purity uses the unbiased U-statistic over ordered pairs of distinct shots
within each setting.  Standard errors come from a leave-one-setting-out
jackknife; settings are the independent replication unit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..qsim import QuantumState
from .cliffords import CLIFFORD_TABLE
from .dataset import RandMeasDataset
from .settings import MeasurementSetting, sample_settings


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float | None
    n_settings: int


@dataclass(frozen=True)
class FidelityEstimate:
    """Overlap, purities, and F_max = overlap / max(purities) with jackknife errors.

    Purities (and their errors) are reported in the canonical order of the two
    datasets sorted by (device id, state label, counts), which makes the
    estimate exactly symmetric in its arguments; ``devices`` records that order.
    """

    overlap: float
    purity_1: float
    purity_2: float
    fmax: float
    se_overlap: float
    se_purity_1: float
    se_purity_2: float
    se_fmax: float
    devices: tuple[str, str]
    subsystem: tuple[int, ...] | None
    n_settings: int
    unreliable: bool


def _marginal_index(ints: np.ndarray, num_qubits: int, subsystem: tuple[int, ...]) -> np.ndarray:
    # qubit q occupies bit (num_qubits-1-q) of the basis index
    out = np.zeros_like(ints)
    for q in subsystem:
        out = (out << 1) | ((ints >> (num_qubits - 1 - q)) & 1)
    return out


def marginal_probabilities(
    probs: np.ndarray, num_qubits: int, subsystem: tuple[int, ...]
) -> np.ndarray:
    """Sum a full-register distribution down to the given qubits (order kept)."""
    sub = _marginal_index(np.arange(len(probs), dtype=np.int64), num_qubits, subsystem)
    out = np.zeros(2 ** len(subsystem))
    np.add.at(out, sub, probs)
    return out


def _counts_arrays(
    counts: np.ndarray, num_qubits: int, subsystem: tuple[int, ...] | None
) -> tuple[np.ndarray, np.ndarray]:
    ints, cnt = counts[:, 0], counts[:, 1].astype(float)
    if subsystem is not None:
        sub = _marginal_index(ints, num_qubits, subsystem)
        uniq, inv = np.unique(sub, return_inverse=True)
        agg = np.zeros(len(uniq))
        np.add.at(agg, inv, cnt)
        return uniq, agg
    return ints, cnt


def _kernel_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.bitwise_count((a[:, None] ^ b[None, :]).astype(np.uint64))
    return (-0.5) ** d.astype(float)


def _check_subsystem(num_qubits: int, subsystem: tuple[int, ...] | None) -> tuple[int, ...] | None:
    if subsystem is None:
        return None
    sub = tuple(int(q) for q in subsystem)
    if len(set(sub)) != len(sub):
        raise ValueError("subsystem qubits must be distinct")
    for q in sub:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} outside register of {num_qubits}")
    return sub


def _align(ds1: RandMeasDataset, ds2: RandMeasDataset, subsystem: tuple[int, ...] | None) -> None:
    if ds1.num_qubits != ds2.num_qubits:
        raise ValueError("datasets have different register sizes")
    if ds1.n_settings != ds2.n_settings:
        raise ValueError("datasets have different numbers of settings")
    for u, (a, b) in enumerate(zip(ds1.settings, ds2.settings)):
        if not a.matches(b, qubits=subsystem):
            raise ValueError(f"settings differ at position {u} (setting id {a.setting_id})")


def _cross_terms(
    ds1: RandMeasDataset, ds2: RandMeasDataset, subsystem: tuple[int, ...] | None
) -> np.ndarray:
    n_a = ds1.num_qubits if subsystem is None else len(subsystem)
    scale = 2.0**n_a
    out = np.empty(ds1.n_settings)
    for u in range(ds1.n_settings):
        i1, c1 = _counts_arrays(ds1.counts[u], ds1.num_qubits, subsystem)
        i2, c2 = _counts_arrays(ds2.counts[u], ds2.num_qubits, subsystem)
        f1 = c1 / ds1.shots_per_setting
        f2 = c2 / ds2.shots_per_setting
        out[u] = scale * (f1 @ _kernel_matrix(i1, i2) @ f2)
    return out


def _purity_terms(ds: RandMeasDataset, subsystem: tuple[int, ...] | None) -> np.ndarray:
    if ds.shots_per_setting < 2:
        raise ValueError("purity needs at least two shots per setting")
    n_a = ds.num_qubits if subsystem is None else len(subsystem)
    scale = 2.0**n_a
    n_m = ds.shots_per_setting
    out = np.empty(ds.n_settings)
    for u in range(ds.n_settings):
        ints, cnt = _counts_arrays(ds.counts[u], ds.num_qubits, subsystem)
        # ordered pairs of distinct shots: subtract the N_M same-shot pairs
        total = cnt @ _kernel_matrix(ints, ints) @ cnt
        out[u] = scale * (total - n_m) / (n_m * (n_m - 1.0))
    return out


def _jackknife_se(loo: np.ndarray) -> float:
    n = len(loo)
    if n < 2 or not np.all(np.isfinite(loo)):
        return float("nan")
    return float(np.sqrt((n - 1.0) / n * np.sum((loo - loo.mean()) ** 2)))


def _loo_means(terms: np.ndarray) -> np.ndarray:
    n = len(terms)
    if n < 2:
        return np.full(n, np.nan)
    return (terms.sum() - terms) / (n - 1.0)


def _mean_with_jackknife(terms: np.ndarray) -> Estimate:
    n = len(terms)
    se = _jackknife_se(_loo_means(terms)) if n >= 2 else float("nan")
    return Estimate(float(terms.mean()), se, n)


def estimate_overlap(
    ds1: RandMeasDataset,
    ds2: RandMeasDataset,
    subsystem: tuple[int, ...] | None = None,
) -> Estimate:
    """Tr[rho_1 rho_2] from shared-settings counts, marginalized to ``subsystem``."""
    sub = _check_subsystem(ds1.num_qubits, subsystem)
    if ds1 is ds2:
        return estimate_purity(ds1, sub)
    _align(ds1, ds2, sub)
    return _mean_with_jackknife(_cross_terms(ds1, ds2, sub))


def estimate_purity(
    ds: RandMeasDataset, subsystem: tuple[int, ...] | None = None
) -> Estimate:
    """Tr[rho^2] via the within-setting U-statistic over distinct shot pairs."""
    sub = _check_subsystem(ds.num_qubits, subsystem)
    return _mean_with_jackknife(_purity_terms(ds, sub))


def _canonical_pair(
    ds1: RandMeasDataset, ds2: RandMeasDataset
) -> tuple[RandMeasDataset, RandMeasDataset]:
    key1, key2 = (ds1.device_id, ds1.state_label), (ds2.device_id, ds2.state_label)
    if key1 == key2:
        # break ties as bitstring-keyed counts did, so purity_1/purity_2 keep their order
        key1, key2 = (
            repr([{format(i, f"0{ds.num_qubits}b"): c for i, c in b.tolist()} for b in ds.counts])
            for ds in (ds1, ds2)
        )
    return (ds1, ds2) if key1 <= key2 else (ds2, ds1)


def estimate_fmax(
    ds1: RandMeasDataset,
    ds2: RandMeasDataset,
    subsystem: tuple[int, ...] | None = None,
) -> FidelityEstimate:
    sub = _check_subsystem(ds1.num_qubits, subsystem)
    a, b = _canonical_pair(ds1, ds2)
    _align(a, b, sub)
    pa = _purity_terms(a, sub)
    pb = pa if b is a else _purity_terms(b, sub)
    # comparing a dataset with itself: the cross product of identical counts
    # is biased by same-shot pairs, so the overlap IS the purity there
    # (_align has matched the number of settings)
    same = a is b or (a.device_id == b.device_id and all(map(np.array_equal, a.counts, b.counts)))
    o = pa.copy() if same else _cross_terms(a, b, sub)

    def fmax_of(om: float, pam: float, pbm: float) -> float:
        denom = max(pam, pbm)
        return om / denom if denom != 0.0 else float("nan")

    o_m, pa_m, pb_m = float(o.mean()), float(pa.mean()), float(pb.mean())
    fm = fmax_of(o_m, pa_m, pb_m)
    loo = np.array(
        [fmax_of(lo, lpa, lpb) for lo, lpa, lpb in zip(_loo_means(o), _loo_means(pa), _loo_means(pb))]
    )
    return FidelityEstimate(
        overlap=o_m,
        purity_1=pa_m,
        purity_2=pb_m,
        fmax=fm,
        se_overlap=_jackknife_se(_loo_means(o)),
        se_purity_1=_jackknife_se(_loo_means(pa)),
        se_purity_2=_jackknife_se(_loo_means(pb)),
        se_fmax=_jackknife_se(loo),
        devices=(a.device_id, b.device_id),
        subsystem=sub,
        n_settings=len(o),
        unreliable=not (max(pa_m, pb_m) > 0.0),
    )


def _reduced_state(state: QuantumState, subsystem: tuple[int, ...] | None) -> QuantumState:
    return state if subsystem is None else state.reduced(subsystem)


def _setting_for_width(
    setting: MeasurementSetting, full_width: int, subsystem: tuple[int, ...] | None, width: int
) -> MeasurementSetting:
    if setting.num_qubits == width:
        return setting
    if subsystem is not None and setting.num_qubits == full_width:
        return setting.restricted(subsystem)
    raise ValueError("setting width matches neither the register nor the subsystem")


def exact_mode_overlap(
    state1: QuantumState,
    state2: QuantumState,
    ensemble: str = "clifford",
    subsystem: tuple[int, ...] | None = None,
    settings: list[MeasurementSetting] | None = None,
    n_settings: int | None = None,
    seed: int | None = None,
) -> Estimate:
    """Infinite-shot estimator from exact rotated probabilities.

    With the Clifford ensemble and no explicit settings the full table of
    24^N_A settings is enumerated (N_A <= 3), reproducing the overlap exactly;
    otherwise the given or sampled settings are averaged with a standard error.
    """
    full_n = state1.num_qubits
    sub = _check_subsystem(full_n, subsystem)
    sa = _reduced_state(state1, sub)
    sb = _reduced_state(state2, sub)
    n_a = sa.num_qubits
    if sb.num_qubits != n_a:
        raise ValueError("states have different widths")
    idx = np.arange(2**n_a, dtype=np.int64)
    kernel = _kernel_matrix(idx, idx)
    scale = 2.0**n_a

    def term(us: list[np.ndarray]) -> float:
        pa = sa.rotated(us).probabilities()
        pb = sb.rotated(us).probabilities()
        return scale * (pa @ kernel @ pb)

    if settings is None and ensemble == "clifford" and n_settings is None:
        if n_a > 3:
            raise ValueError("full Clifford enumeration limited to 3 qubits")
        acc = 0.0
        for combo in itertools.product(range(len(CLIFFORD_TABLE)), repeat=n_a):
            acc += term([CLIFFORD_TABLE[i] for i in combo])
        total = len(CLIFFORD_TABLE) ** n_a
        return Estimate(acc / total, None, total)
    if settings is None:
        if n_settings is None or seed is None:
            raise ValueError("sampled exact mode needs n_settings and seed")
        settings = sample_settings(n_a, n_settings, seed, ensemble)
    terms = np.array(
        [term(_setting_for_width(s, full_n, sub, n_a).unitaries()) for s in settings]
    )
    return _mean_with_jackknife(terms)
