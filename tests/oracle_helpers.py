"""Independent brute-force constructions used as test oracles.

Everything here is built from first principles with a different data layout
than the package (full Fock space, dense matrices) so that agreement is a
real cross-check rather than a tautology.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qverify.qsim import FermionTerm, QuantumState, QubitBasis, apply_terms, current_terms, number_terms
from qverify.qsim import solve as qsolve
from qverify.qsim.qubit import HADAMARD, pauli_entries
from qverify.randmeas import (
    CLIFFORD_TABLE,
    Estimate,
    FidelityEstimate,
    MeasurementSetting,
    RandMeasDataset,
    jackknife,
    phase_normalize,
)
from qverify.repostore import (
    FORMAT_VERSION,
    MalformedDatasetError,
    canonical_json,
    dataset_ensemble,
    fnv1a64,
)
from qverify.repostore.format import (
    _FIELD_TYPES,
    _REQUIRED_KEYS,
    MAX_COUNT,
    MAX_QUBITS,
    _format_float,
    _matrix_to_pairs,
    _pairs_to_matrix,
    check_digest,
    is_int,
    parse_envelope,
)
from qverify.verifyproto import commit

# ---------------------------------------------------------------- fermions
# Fock space of n_modes modes; basis index = occupation bitmask (bit m = mode m).
# |b> = (c+_0)^{b_0} (c+_1)^{b_1} ... |vac>, creation operators ordered by mode.


def fock_annihilator(n_modes: int, mode: int) -> np.ndarray:
    """Dense matrix of c_mode on the full Fock space."""
    dim = 1 << n_modes
    out = np.zeros((dim, dim))
    below = (1 << mode) - 1
    for b in range(dim):
        if b & (1 << mode):
            sign = -1.0 if bin(b & below).count("1") % 2 else 1.0
            out[b ^ (1 << mode), b] = sign
    return out


def fock_creator(n_modes: int, mode: int) -> np.ndarray:
    return fock_annihilator(n_modes, mode).T


def fock_number(n_modes: int, mode: int) -> np.ndarray:
    return fock_creator(n_modes, mode) @ fock_annihilator(n_modes, mode)


def sector_fock_indices(n_sites: int, nup: int, ndown: int) -> list[int]:
    """Fock bitmasks of the (nup, ndown) sector, ordered like the package:
    up configs ascending (major), down configs ascending (minor); site bit s
    of the up mask maps to mode 2s, of the down mask to mode 2s+1."""
    from itertools import combinations

    def masks(k):
        out = []
        for occ in combinations(range(n_sites), k):
            m = 0
            for s in occ:
                m |= 1 << s
            out.append(m)
        return sorted(out)

    def spread(mask, offset):
        f = 0
        for s in range(n_sites):
            if mask & (1 << s):
                f |= 1 << (2 * s + offset)
        return f

    out = []
    for um in masks(nup):
        for dm in masks(ndown):
            out.append(spread(um, 0) | spread(dm, 1))
    return out


def project_to_sector(op_fock: np.ndarray, fock_indices: list[int]) -> np.ndarray:
    idx = np.array(fock_indices)
    return op_fock[np.ix_(idx, idx)]


def fock_terms_matrix(n_modes: int, terms) -> np.ndarray:
    """Dense Fock matrix of a FermionTerm list (package type, oracle build)."""
    dim = 1 << n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        m = np.eye(dim, dtype=complex)
        for mode, dagger in t.ops:
            f = fock_creator(n_modes, mode) if dagger else fock_annihilator(n_modes, mode)
            m = m @ f
        out += t.coeff * m
    return out


# ---------------------------------------------------------------- hamlearn
# The per-candidate routes the package replaced: each candidate expanded into
# its own ladder monomials, each K row applying them term by term, and
# selection running Gram-Schmidt row by row.


def multiply_terms(a, b) -> list[FermionTerm]:
    """Operator product a * b as an expanded monomial list (no normal ordering)."""
    return [FermionTerm(ta.coeff * tb.coeff, ta.ops + tb.ops) for ta in a for tb in b]


def scale_terms(a, s: complex) -> list[FermionTerm]:
    return [FermionTerm(t.coeff * s, t.ops) for t in a]


def constraint_terms(cop) -> list[FermionTerm]:
    """The candidate {J, n_k}/2 as its 8 monomials."""
    cur = current_terms(*cop.bond, cop.spin)
    den = number_terms(cop.k_site, cop.k_spin)
    return scale_terms(multiply_terms(cur, den) + multiply_terms(den, cur), 0.5)


def term_modes(terms) -> set[int]:
    """Every mode a monomial list touches."""
    return {mode for t in terms for mode, _ in t.ops}


def monomial_k_row(engine, cop) -> np.ndarray:
    """sum_k p_k 2 Im((A v_k)^H Phi_k) with A applied term by term."""
    return sum(
        p * 2.0 * np.imag(apply_terms(engine.fbasis, constraint_terms(cop), vec).conj() @ phi)
        for (p, vec), phi in zip(engine.ensemble, engine.phi)
    )


def greedy_selection(rows: np.ndarray, pool: list, n_constraints: int, tol: float):
    """(labels, independent, rank, n_rejected) of greedy selection over
    ``rows`` (in visiting order), one candidate at a time."""
    accepted, independent, rejected, qrows = [], [], [], []
    row_scale = 0.0
    for cand, row in zip(pool, rows):
        if len(accepted) >= n_constraints:
            break
        nrm = float(np.linalg.norm(row))
        row_scale = max(row_scale, nrm)
        if nrm <= 1e-14 * max(row_scale, 1.0):
            rejected.append(cand)
            continue
        resid = row.copy()
        for q in qrows:
            resid -= (q @ resid) * q
        if float(np.linalg.norm(resid)) / nrm >= tol:
            qrows.append(resid / np.linalg.norm(resid))
            accepted.append(cand)
            independent.append(True)
        else:
            rejected.append(cand)
    n_rejected = len(rejected)
    fill = rejected[: n_constraints - len(accepted)]
    accepted += fill
    independent += [False] * len(fill)
    return [c.label for c in accepted], independent, len(qrows), n_rejected


# ---------------------------------------------------------------- qubits

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(factors: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, _P1[f])
    return out


def dense_pauli_operator(n: int, terms) -> np.ndarray:
    """Sum of Pauli terms as a dense array, accumulated term by term with
    ``+=`` (the package builds the same sum as a CSR)."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for t in terms:
        rows, cols, vals = pauli_entries(t)
        out[rows, cols] += vals
    return out


def dense_overlap(rho1: np.ndarray, rho2: np.ndarray) -> float:
    return float(np.real(np.trace(rho1 @ rho2)))


def dense_fmax(rho1: np.ndarray, rho2: np.ndarray) -> float:
    o = dense_overlap(rho1, rho2)
    return o / max(dense_overlap(rho1, rho1), dense_overlap(rho2, rho2))


# ---------------------------------------------------------------- dynamics
# Dense-feasible reference routines that only the tests call.


def _dense(op) -> np.ndarray:
    return op.toarray() if sp.issparse(op) else np.asarray(op)


def assert_ground_state_matches_dense(op, basis) -> None:
    """``ground_state`` against a dense LAPACK solve of the lowest eigenpair:
    energies to 1e-10 relative, |<psi|psi_oracle>| within 1e-10 of 1."""
    energy, state = qsolve.ground_state(op, basis)
    w, v = scipy.linalg.eigh(_dense(op), subset_by_index=[0, 0])
    assert abs(energy - w[0]) <= 1e-10 * abs(w[0])
    assert abs(abs(np.vdot(state.data, v[:, 0])) - 1.0) <= 1e-10


def thermal_state(op, basis, beta: float) -> QuantumState:
    """exp(-beta H) / Z, dense-feasible systems only."""
    if basis.dim > qsolve.DENSE_CUTOFF:
        raise ValueError(f"thermal_state is dense-only (dim {basis.dim} > {qsolve.DENSE_CUTOFF})")
    w, v = scipy.linalg.eigh(_dense(op))
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    return QuantumState((v * p) @ v.conj().T, basis)


def time_evolve(state: QuantumState, op, t: float) -> QuantumState:
    """exp(-i H t) |psi> (or U rho U+ for mixed dense states); Krylov
    propagation above the package's dense cutoff."""
    if state.is_pure:
        if state.dim <= qsolve.DENSE_CUTOFF:
            w, v = scipy.linalg.eigh(_dense(op))
            out = v @ (np.exp(-1j * w * t) * (v.conj().T @ state.data))
        else:
            h = op if sp.issparse(op) else sp.csr_matrix(op)
            out = spla.expm_multiply((-1j * t) * h.astype(complex), state.data.astype(complex))
        return QuantumState(out, state.basis)
    if state.dim > qsolve.DENSE_CUTOFF:
        raise ValueError("mixed-state evolution is dense-only")
    w, v = scipy.linalg.eigh(_dense(op))
    u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
    return QuantumState(u @ state.data @ u.conj().T, state.basis)


def expectation(state: QuantumState, op) -> float:
    """<O> for a Hermitian operator; the imaginary residue must vanish."""
    if state.is_pure:
        val = complex(np.vdot(state.data, op @ state.data))
    else:
        val = complex(np.trace(op @ state.data))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}; operator not Hermitian?")
    return float(val.real)


def observable_variance(state: QuantumState, op) -> float:
    """Var(O) = <O^2> - <O>^2 on the state (op Hermitian)."""
    if state.is_pure:
        ov = op @ state.data
        mean = float(np.real(np.vdot(state.data, ov)))
        second = float(np.real(np.vdot(ov, ov)))
    else:
        orho = op @ state.data
        mean = float(np.real(np.trace(orho)))
        second = float(np.real(np.trace(op @ orho)))
    return max(second - mean * mean, 0.0)


@dataclass(frozen=True)
class SampleStats:
    """Sample mean and (ddof=1) variance of Born-sampled eigenvalues."""

    mean: float
    variance: float
    n_shots: int


def sample_observable(
    state: QuantumState, op, n_shots: int, rng: np.random.Generator
) -> SampleStats:
    """Projective measurement statistics of a dense-feasible Hermitian observable."""
    if n_shots < 1:
        raise ValueError("need at least one shot")
    if state.dim > qsolve.DENSE_CUTOFF:
        raise ValueError("sample_observable needs a dense-feasible operator")
    w, v = scipy.linalg.eigh(_dense(op))
    if state.is_pure:
        probs = np.abs(v.conj().T @ state.data) ** 2
    else:
        probs = np.real(np.einsum("ij,jk,ki->i", v.conj().T, state.data, v))
        probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    counts = rng.multinomial(n_shots, probs)
    mean = float(counts @ w) / n_shots
    var = 0.0 if n_shots == 1 else float(counts @ (w - mean) ** 2) / (n_shots - 1)
    return SampleStats(mean=mean, variance=var, n_shots=n_shots)


# ---------------------------------------------------------------- randomized measurements


def clifford_index(u: np.ndarray) -> int:
    """Table index of ``u`` up to global phase."""
    v = phase_normalize(np.asarray(u, dtype=complex))
    for i, c in enumerate(CLIFFORD_TABLE):
        if np.allclose(c, v, atol=1e-9):
            return i
    raise ValueError("matrix is not in the single-qubit Clifford table")


def marginal_probabilities(probs: np.ndarray, num_qubits: int, subsystem) -> np.ndarray:
    """Sum a full-register distribution down to ``subsystem``, in its order."""
    rest = tuple(q for q in range(num_qubits) if q not in subsystem)
    p = np.asarray(probs).reshape((2,) * num_qubits).sum(axis=rest)
    # the summed array keeps the subsystem's axes in ascending qubit order
    return np.transpose(p, np.argsort(np.argsort(subsystem))).reshape(-1)


# The string-keyed estimators: every outcome is a bitstring key, read back
# from the dataset's file document and parsed with int(b, 2) on each call,
# with the kernel evaluated string against string in exact rational
# arithmetic, so each term is rounded once, when it becomes a float.


def hamming_kernel(s: str, t: str) -> Fraction:
    """(-2)^(-D) for the Hamming distance D between equal-length strings."""
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} vs {len(t)}")
    return Fraction(-1, 2) ** sum(a != b for a, b in zip(s, t))


def bitstring_counts(ds) -> list[dict[str, int]]:
    """One {bitstring: count} map per setting, in file order."""
    return [{bits: cnt for bits, cnt in block} for block in dataset_to_document(ds)["counts"]]


def _string_marginal(counts_map: dict[str, int], subsystem) -> dict[str, int]:
    if subsystem is None:
        return counts_map
    marginal: dict[str, int] = {}
    for bits, cnt in counts_map.items():
        key = "".join(bits[q] for q in subsystem)
        marginal[key] = marginal.get(key, 0) + cnt
    return marginal


def _string_kernel_sum(m1: dict[str, int], m2: dict[str, int]) -> Fraction:
    return sum(
        (c1 * c2 * hamming_kernel(s, t) for s, c1 in m1.items() for t, c2 in m2.items()),
        Fraction(0),
    )


def string_cross_terms(ds1, ds2, subsystem=None) -> np.ndarray:
    scale = 2 ** (ds1.num_qubits if subsystem is None else len(subsystem))
    n12 = ds1.shots_per_setting * ds2.shots_per_setting
    out = []
    for m1, m2 in zip(bitstring_counts(ds1), bitstring_counts(ds2)):
        total = _string_kernel_sum(_string_marginal(m1, subsystem), _string_marginal(m2, subsystem))
        out.append(float(scale * total / n12))
    return np.array(out)


def string_purity_terms(ds, subsystem=None) -> np.ndarray:
    scale = 2 ** (ds.num_qubits if subsystem is None else len(subsystem))
    n_m = ds.shots_per_setting
    out = []
    for m in bitstring_counts(ds):
        marginal = _string_marginal(m, subsystem)
        # ordered pairs of distinct shots: drop the N_M same-shot pairs
        total = _string_kernel_sum(marginal, marginal) - n_m
        out.append(float(scale * total / (n_m * (n_m - 1))))
    return np.array(out)


def _string_same_data(ds1, ds2) -> bool:
    """One record: the same object, or one device id with equal counts."""
    return ds1 is ds2 or (
        ds1.device_id == ds2.device_id and bitstring_counts(ds1) == bitstring_counts(ds2)
    )


def string_overlap(ds1, ds2, subsystem=None) -> Estimate:
    if _string_same_data(ds1, ds2):
        terms = string_purity_terms(ds1, subsystem)
    else:
        terms = string_cross_terms(ds1, ds2, subsystem)
    return Estimate(*jackknife(float, terms), len(terms))


def string_fmax(ds1, ds2, subsystem=None) -> FidelityEstimate:
    """F_max with the datasets ordered by (device id, state label, repr of
    the bitstring-keyed counts)."""
    key1, key2 = ((d.device_id, d.state_label, repr(bitstring_counts(d))) for d in (ds1, ds2))
    a, b = (ds1, ds2) if key1 <= key2 else (ds2, ds1)
    pa, pb = string_purity_terms(a, subsystem), string_purity_terms(b, subsystem)
    o = pa.copy() if _string_same_data(a, b) else string_cross_terms(a, b, subsystem)

    def fmax_of(om, pam, pbm):
        denom = max(pam, pbm)
        return om / denom if denom != 0.0 else float("nan")

    (o_m, se_o), (pa_m, se_pa), (pb_m, se_pb) = (jackknife(float, t) for t in (o, pa, pb))
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
        subsystem=subsystem,
        n_settings=len(o),
        unreliable=not (max(pa_m, pb_m) > 0.0),
    )


# ---------------------------------------------------------------- delegation rounds
# The commit-every-round path the memoized provers replace: each round
# commits the state afresh, draws the image with ``Generator.choice``,
# collapses, rotates and draws the outcome with ``Generator.choice`` again.


def image_probabilities(committed: QuantumState) -> np.ndarray:
    """Born distribution of the two-qubit image register."""
    probs = (np.abs(committed.data.reshape(-1, 4)) ** 2).sum(axis=0)
    return probs / probs.sum()


def collapse(committed: QuantumState, y: int) -> QuantumState:
    """System plus preimage qubits after the image register read ``y``."""
    residual = committed.data.reshape(-1, 4)[:, y]
    residual = residual / np.linalg.norm(residual)
    return QuantumState(residual, QubitBasis(committed.num_qubits - 2))


def commit_measure_image(committed, rng: np.random.Generator) -> tuple[int, QuantumState]:
    """Born-sample the image register; return (y, collapsed remainder).

    The remainder keeps the n system qubits plus the preimage qubit at
    index n; the measured image register is dropped.
    """
    y = int(rng.choice(4, p=image_probabilities(committed)))
    return y, collapse(committed, y)


def outcome_probabilities(state: QuantumState, ops) -> np.ndarray:
    """Born distribution of ``state`` with every X-listed qubit rotated by H."""
    units = [None] * state.num_qubits
    for q, basis in ops:
        if basis == "x":
            units[q] = HADAMARD
        elif basis != "z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
    rotated = state.rotated(units) if any(u is not None for u in units) else state
    return rotated.probabilities()


def sample_bits(state: QuantumState, ops, rng: np.random.Generator) -> tuple[int, ...]:
    """Jointly sample the listed (qubit, 'x'|'z') pairs in one Born draw."""
    p = outcome_probabilities(state, ops)
    i = int(rng.choice(p.size, p=p))
    return tuple((i >> (state.num_qubits - 1 - q)) & 1 for q, _ in ops)


class OracleSession:
    """An honest round on a committed state, measured on construction."""

    def __init__(self, committed: QuantumState, qubit: int, other_ops, rng):
        self.image, self._residual = commit_measure_image(committed, rng)
        self._qubit = qubit
        self._preimage = committed.num_qubits - 3
        self._other_ops = tuple(other_ops)
        self._rng = rng

    def reveal_test(self) -> tuple[int, int]:
        return sample_bits(self._residual, [(self._qubit, "z"), (self._preimage, "z")], self._rng)

    def reveal_measurement(self):
        ops = [(self._qubit, "x"), (self._preimage, "x")] + list(self._other_ops)
        bits = sample_bits(self._residual, ops, self._rng)
        return (bits[0], bits[1]), tuple(bits[2:])


class OracleBasisGuessSession(OracleSession):
    """Measures the committed registers in Z and fabricates the X outcomes."""

    def reveal_measurement(self):
        ops = [(self._qubit, "z"), (self._preimage, "z")] + list(self._other_ops)
        bits = sample_bits(self._residual, ops, self._rng)
        fabricated = (int(self._rng.integers(2)), int(self._rng.integers(2)))
        return fabricated, tuple(bits[2:])


class OracleProver:
    """Commits ``state`` every round: ``kind`` is "honest", "basis-guess" or
    "wrong-table" (every committed image bit flipped)."""

    def __init__(self, state: QuantumState, kind: str = "honest"):
        self.state, self.kind = state, kind

    def open_round(self, table, qubit, other_ops, rng):
        if self.kind == "wrong-table":
            table = tuple(int(t) ^ 1 for t in table)
        session = OracleBasisGuessSession if self.kind == "basis-guess" else OracleSession
        return session(commit(self.state, qubit, table), qubit, other_ops, rng)


class OracleMixedProver:
    """A fresh uniformly random computational basis state per round."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits

    def open_round(self, table, qubit, other_ops, rng):
        vec = np.zeros(1 << self.num_qubits, dtype=complex)
        vec[int(rng.integers(vec.size))] = 1.0
        state = QuantumState(vec, QubitBasis(self.num_qubits))
        return OracleProver(state).open_round(table, qubit, other_ops, rng)


# ---------------------------------------------------------------- canonical text


def recursive_canonical_json(obj) -> str:
    """The canonical writer node by node: every type, every key, every error."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise MalformedDatasetError(f"non-string key {k!r}")
        inner = ",".join(
            f"{json.dumps(k, ensure_ascii=True)}:{recursive_canonical_json(obj[k])}"
            for k in sorted(obj)
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(recursive_canonical_json(v) for v in obj) + "]"
    raise MalformedDatasetError(f"unserializable value of type {type(obj).__name__}")


# ---------------------------------------------------------------- dataset files
# The dataset writer and reader entry by entry and block by block: the whole
# document built, rendered for its digest and rendered again with it; the
# counts checked and sorted per entry and validated per block.


def oracle_validate(ds) -> None:
    """``RandMeasDataset.validate`` one setting at a time."""
    if len(ds.settings) != len(ds.counts):
        u = min(len(ds.settings), len(ds.counts))
        raise ValueError(f"setting {u}: {len(ds.settings)} settings but {len(ds.counts)} counts arrays")
    if not ds.settings:
        raise ValueError("settings must be non-empty")
    if ds.shots_per_setting < 1:
        raise ValueError("need at least one shot per setting")
    ids = [s.setting_id for s in ds.settings]
    if len(set(ids)) != len(ids):
        raise ValueError("setting ids must be unique")
    for u, s in enumerate(ds.settings):
        if s.num_qubits != ds.num_qubits:
            raise ValueError(f"setting {u}: width {s.num_qubits} != {ds.num_qubits} qubits")
    for u, c in enumerate(ds.counts):
        if not (isinstance(c, np.ndarray) and c.dtype == np.int64 and c.shape[1:] == (2,)):
            raise ValueError(f"setting {u}: counts must be an int64 (K, 2) array")
        outcomes, n = c[:, 0], c[:, 1]
        inside = (outcomes >= 0) & (outcomes >> ds.num_qubits == 0)
        if np.any(np.diff(outcomes) <= 0) or not inside.all():
            raise ValueError(f"setting {u}: outcomes must ascend strictly within the register")
        if np.any(n < 0):
            raise ValueError(f"setting {u}: negative count")
        total = sum(n.tolist())
        if total != ds.shots_per_setting:
            raise ValueError(
                f"setting {u}: counts sum {total} != shots_per_setting {ds.shots_per_setting}"
            )


def dataset_to_document(ds) -> dict:
    """The parsed form of a dataset file, digest included."""
    oracle_validate(ds)
    ensemble = dataset_ensemble(ds)
    if ensemble == "clifford":
        settings = [list(s.clifford_indices) for s in ds.settings]
    else:
        settings = [[_matrix_to_pairs(m) for m in s.matrices] for s in ds.settings]
    fmt = f"0{ds.num_qubits}b"
    doc = {
        "format_version": FORMAT_VERSION,
        "device_id": ds.device_id,
        "state_label": ds.state_label,
        "num_qubits": ds.num_qubits,
        "ensemble": ensemble,
        "settings": settings,
        "counts": [[[format(i, fmt), c] for i, c in block.tolist()] for block in ds.counts],
        "shots_per_setting": ds.shots_per_setting,
        "provenance": dict(ds.provenance),
    }
    doc["digest"] = oracle_document_digest(doc)
    return doc


def oracle_document_digest(doc: dict) -> str:
    """``document_digest`` as one render of the whole document body."""
    body = {k: v for k, v in doc.items() if k != "digest"}
    return format(fnv1a64(canonical_json(body).encode("utf-8")), "016x")


def oracle_serialize_dataset(ds) -> str:
    return canonical_json(dataset_to_document(ds)) + "\n"


def _oracle_check_fields(doc: dict) -> None:
    for key, kind in _FIELD_TYPES:
        if not isinstance(doc[key], kind):
            got = type(doc[key]).__name__
            raise MalformedDatasetError(f"{key} must be a {kind.__name__}, not {got}")
    if doc["ensemble"] not in ("clifford", "haar"):
        raise MalformedDatasetError(f"unknown ensemble tag {doc['ensemble']!r}")
    n = doc["num_qubits"]
    if not is_int(n) or not 1 <= n <= MAX_QUBITS:
        raise MalformedDatasetError(f"bad num_qubits {n!r}")
    shots = doc["shots_per_setting"]
    if not is_int(shots):
        raise MalformedDatasetError(f"bad shots_per_setting {shots!r}")
    for u, spec in enumerate(doc["settings"]):
        if not isinstance(spec, list) or (
            doc["ensemble"] == "clifford" and not all(is_int(i) for i in spec)
        ):
            raise MalformedDatasetError(f"setting {u}: malformed spec {spec!r}")
    for u, block in enumerate(doc["counts"]):
        if not isinstance(block, list):
            raise MalformedDatasetError(f"setting {u}: counts block {block!r}")
        for entry in block:
            if not isinstance(entry, list) or len(entry) != 2:
                raise MalformedDatasetError(f"setting {u}: counts entry {entry!r}")
            bits, cnt = entry
            if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
                raise MalformedDatasetError(f"setting {u}: malformed bitstring {bits!r}")
            if not is_int(cnt) or abs(cnt) > MAX_COUNT:
                raise MalformedDatasetError(f"setting {u}: bad count {cnt!r}")


def oracle_load_dataset_text(text: str):
    """``read_dataset_text`` entry by entry, without the canonical text: the
    same four steps in order."""
    doc = parse_envelope(text, _REQUIRED_KEYS)
    _oracle_check_fields(doc)
    settings = []
    for u, spec in enumerate(doc["settings"]):
        try:
            if doc["ensemble"] == "clifford":
                settings.append(MeasurementSetting(u, clifford_indices=tuple(spec)))
            else:
                matrices = tuple(_pairs_to_matrix(q) for q in spec)
                settings.append(MeasurementSetting(u, matrices=matrices))
        except ValueError as exc:
            raise MalformedDatasetError(f"setting {u}: {exc}") from None
    counts = [
        np.array(sorted((int(b, 2), c) for b, c in block), dtype=np.int64).reshape(-1, 2)
        for block in doc["counts"]
    ]
    ds = RandMeasDataset(
        device_id=doc["device_id"],
        state_label=doc["state_label"],
        num_qubits=doc["num_qubits"],
        settings=settings,
        counts=counts,
        shots_per_setting=doc["shots_per_setting"],
        provenance=dict(doc["provenance"]),
    )
    try:
        oracle_validate(ds)
    except ValueError as exc:
        raise MalformedDatasetError(str(exc)) from None
    check_digest(doc, oracle_document_digest(doc))
    return ds, doc


# ---------------------------------------------------------------- seeded streams


def oracle_make_rng(seed: int, *path: object) -> np.random.Generator:
    """numpy's own ``PCG64(SeedSequence(seed, spawn_key))`` for the stream
    (seed, *path): the package's derivation before it hashed seeds itself.
    Path parts are ints masked to 32 bits or strings hashed by 32-bit FNV-1a."""
    key = []
    for p in path:
        if isinstance(p, str):
            acc = 2166136261
            for ch in p.encode("utf-8"):
                acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
            key.append(acc)
        else:
            key.append(int(p) & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=tuple(key))))


def oracle_make_rngs(seed: int, *path: object, indices):
    """``make_rngs`` as one oracle stream per index."""
    return (oracle_make_rng(seed, *path, i) for i in indices)


# ---------------------------------------------------------------- benchmark

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, run against the
    package under test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module
