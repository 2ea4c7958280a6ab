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


def _kernel_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.bitwise_count((a[:, None] ^ b[None, :]).astype(np.uint64))
    return (-0.5) ** d.astype(float)


# The count estimators' kernel in integers.  Per setting u,
#   T_u = sum_{s,t} c1[s] c2[t] 2^{n_A} (-1/2)^{D(s,t)}
#       = sum_{s,t} c1[s] c2[t] (-1)^D 2^{n_A - D},
# an exact integer, so every estimator term is one correctly rounded
# division.  The dense and the pairwise form return the same T_u.

_DENSE_CELLS = 2**22  # histogram cells per block of settings in the dense form


def _histograms(
    blocks: list[np.ndarray], num_qubits: int, subsystem: tuple[int, ...] | None, n_a: int
) -> np.ndarray:
    """(2^n_A, settings) int64 counts of each block's outcomes on the subsystem;
    settings run along the contiguous axis, so every step below is a long run."""
    rows = np.concatenate(blocks)
    setting = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    outcome = rows[:, 0] if subsystem is None else _marginal_index(rows[:, 0], num_qubits, subsystem)
    hist = np.zeros((2**n_a, len(blocks)), dtype=np.int64)
    np.add.at(hist, (outcome, setting), rows[:, 1])
    return hist


def _dense_sums(
    ds1: RandMeasDataset, ds2: RandMeasDataset, subsystem: tuple[int, ...] | None, n_a: int
) -> list[int]:
    """T_u of many settings at once: 2^{n_A} (-1/2)^D = prod_q M[s_q, t_q] with
    M = [[2, -1], [-1, 2]], applied along every qubit axis of one histogram."""
    step = max(1, _DENSE_CELLS >> n_a)
    out: list[int] = []
    for lo in range(0, ds1.n_settings, step):
        h1 = _histograms(ds1.counts[lo : lo + step], ds1.num_qubits, subsystem, n_a)
        if ds2 is ds1:
            g = h1.copy()
        else:
            g = _histograms(ds2.counts[lo : lo + step], ds2.num_qubits, subsystem, n_a)
        for q in range(n_a):
            pair = g.reshape(2**q, 2, -1)  # (M x)_s = 3 x_s - (x_0 + x_1)
            both = pair.sum(axis=1, keepdims=True)
            pair *= 3
            pair -= both
        out += np.einsum("su,su->u", h1, g).tolist()
    return out


def _pairwise_sums(
    ds1: RandMeasDataset, ds2: RandMeasDataset, subsystem: tuple[int, ...] | None, n_a: int
) -> list[int]:
    """T_u setting by setting: the products c1 c2 binned by Hamming distance D,
    then weighted by (-1)^D 2^{n_A - D} in Python integers."""
    # a bin holds at most N1 N2; past int64 the bins hold Python integers
    n12 = int(ds1.shots_per_setting) * int(ds2.shots_per_setting)
    dtype = np.int64 if n12 < 2**63 else object
    weights = [(-1) ** d * 2 ** (n_a - d) for d in range(n_a + 1)]
    out = []
    for b1, b2 in zip(ds1.counts, ds2.counts):
        o1, o2 = b1[:, 0], b2[:, 0]
        if subsystem is not None:  # repeated marginal outcomes are fine: T_u is bilinear
            o1 = _marginal_index(o1, ds1.num_qubits, subsystem)
            o2 = _marginal_index(o2, ds2.num_qubits, subsystem)
        d = np.bitwise_count((o1[:, None] ^ o2[None, :]).astype(np.uint64))
        products = np.multiply.outer(b1[:, 1].astype(dtype), b2[:, 1].astype(dtype))
        bins = np.zeros(n_a + 1, dtype=dtype)
        np.add.at(bins, d.ravel(), products.ravel())
        out.append(sum(w * int(b) for w, b in zip(weights, bins.tolist())))
    return out


def _hamming_sums(
    ds1: RandMeasDataset, ds2: RandMeasDataset, subsystem: tuple[int, ...] | None
) -> list[int]:
    """T_u per setting from the cheaper form.  The dense form costs n_A 2^{n_A}
    per setting against K1 K2 pairs, and its intermediates stay below
    2^{n_A} N1 N2, so it runs only while that bound fits in int64."""
    n_a = ds1.num_qubits if subsystem is None else len(subsystem)
    n12 = int(ds1.shots_per_setting) * int(ds2.shots_per_setting)
    pairs = sum(len(b1) * len(b2) for b1, b2 in zip(ds1.counts, ds2.counts))
    if ds1.n_settings * n_a * 2**n_a <= pairs and n_a + n12.bit_length() < 63:
        return _dense_sums(ds1, ds2, subsystem, n_a)
    return _pairwise_sums(ds1, ds2, subsystem, n_a)


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


def _same_data(ds1: RandMeasDataset, ds2: RandMeasDataset) -> bool:
    """Whether two aligned datasets are one record: the cross product of
    identical counts is biased by same-shot pairs, so their overlap is the
    purity U-statistic."""
    return ds1 is ds2 or (
        ds1.device_id == ds2.device_id and all(map(np.array_equal, ds1.counts, ds2.counts))
    )


def _cross_terms(
    ds1: RandMeasDataset, ds2: RandMeasDataset, subsystem: tuple[int, ...] | None
) -> np.ndarray:
    n12 = int(ds1.shots_per_setting) * int(ds2.shots_per_setting)
    return np.array([t / n12 for t in _hamming_sums(ds1, ds2, subsystem)])


def _purity_terms(ds: RandMeasDataset, subsystem: tuple[int, ...] | None) -> np.ndarray:
    if ds.shots_per_setting < 2:
        raise ValueError("purity needs at least two shots per setting")
    n_a = ds.num_qubits if subsystem is None else len(subsystem)
    n_m = int(ds.shots_per_setting)
    # ordered pairs of distinct shots: drop the N_M same-shot pairs, 2^{n_A} each
    same, pairs = n_m * 2**n_a, n_m * (n_m - 1)
    return np.array([(t - same) / pairs for t in _hamming_sums(ds, ds, subsystem)])


def jackknife(stat, *terms) -> tuple[float, float]:
    """``stat`` of the per-unit means of ``terms``, and its leave-one-out
    jackknife standard error.

    Each of ``terms`` holds one value per independent unit (a setting, a
    round); ``stat`` takes one mean per term.  The error is nan below two
    units or when ``stat`` is not finite on some leave-one-out sample.
    """
    cols = [np.asarray(t, dtype=float) for t in terms]
    n = len(cols[0])
    value = stat(*(float(c.mean()) for c in cols))
    if n < 2:
        return value, float("nan")
    loo = np.array([stat(*m) for m in zip(*((c.sum() - c) / (n - 1.0) for c in cols))])
    if not np.all(np.isfinite(loo)):
        return value, float("nan")
    return value, float(np.sqrt((n - 1.0) / n * np.sum((loo - loo.mean()) ** 2)))


def estimate_overlap(
    ds1: RandMeasDataset,
    ds2: RandMeasDataset,
    subsystem: tuple[int, ...] | None = None,
) -> Estimate:
    """Tr[rho_1 rho_2] from shared-settings counts, marginalized to ``subsystem``.

    Two datasets with one device id and equal counts are one record, and
    their overlap is its purity."""
    sub = _check_subsystem(ds1.num_qubits, subsystem)
    _align(ds1, ds2, sub)
    terms = _purity_terms(ds1, sub) if _same_data(ds1, ds2) else _cross_terms(ds1, ds2, sub)
    return Estimate(*jackknife(float, terms), len(terms))


def _canonical_pair(
    ds1: RandMeasDataset, ds2: RandMeasDataset
) -> tuple[RandMeasDataset, RandMeasDataset]:
    if ds1 is ds2:
        return ds1, ds2
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
    o = pa.copy() if _same_data(a, b) else _cross_terms(a, b, sub)

    def fmax_of(om: float, pam: float, pbm: float) -> float:
        denom = max(pam, pbm)
        return om / denom if denom != 0.0 else float("nan")

    o_m, se_o = jackknife(float, o)
    pa_m, se_pa = jackknife(float, pa)
    pb_m, se_pb = jackknife(float, pb)
    fm, se_fm = jackknife(fmax_of, o, pa, pb)
    return FidelityEstimate(
        overlap=o_m,
        purity_1=pa_m,
        purity_2=pb_m,
        fmax=fm,
        se_overlap=se_o,
        se_purity_1=se_pa,
        se_purity_2=se_pb,
        se_fmax=se_fm,
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
    return Estimate(*jackknife(float, terms), len(terms))
