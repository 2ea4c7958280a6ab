"""Independent brute-force constructions used as test oracles.

Everything here is built from first principles with a different data layout
than the package (full Fock space, dense matrices) so that agreement is a
real cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qverify.qsim import QuantumState, apply_terms
from qverify.qsim import solve as qsolve
from qverify.randmeas import CLIFFORD_TABLE, Estimate, FidelityEstimate, phase_normalize
from qverify.randmeas.estimators import _jackknife_se, _loo_means, _mean_with_jackknife
from qverify.repostore import dataset_to_document

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
# The per-candidate routes the package replaced: each K row applies the
# candidate's own monomials, and selection runs Gram-Schmidt row by row.


def monomial_k_row(engine, cop) -> np.ndarray:
    """sum_k p_k 2 Im((A v_k)^H Phi_k) with A applied term by term."""
    return sum(
        p * 2.0 * np.imag(apply_terms(engine.fbasis, list(cop.terms), vec).conj() @ phi)
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


def dense_overlap(rho1: np.ndarray, rho2: np.ndarray) -> float:
    return float(np.real(np.trace(rho1 @ rho2)))


def dense_fmax(rho1: np.ndarray, rho2: np.ndarray) -> float:
    o = dense_overlap(rho1, rho2)
    return o / max(dense_overlap(rho1, rho1), dense_overlap(rho2, rho2))


# ---------------------------------------------------------------- dynamics
# Dense-feasible reference routines that only the tests call.


def _dense(op) -> np.ndarray:
    return op.toarray() if sp.issparse(op) else np.asarray(op)


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
# with the kernel evaluated string against string.


def hamming_kernel(s: str, t: str) -> float:
    """(-2)^(-D) for the Hamming distance D between equal-length strings."""
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} vs {len(t)}")
    return (-0.5) ** sum(a != b for a, b in zip(s, t))


def bitstring_counts(ds) -> list[dict[str, int]]:
    """One {bitstring: count} map per setting, in file order."""
    return [{bits: cnt for bits, cnt in block} for block in dataset_to_document(ds)["counts"]]


def _string_marginal(counts_map: dict[str, int], subsystem) -> tuple[list[str], np.ndarray]:
    if subsystem is not None:
        marginal: dict[str, int] = {}
        for bits, cnt in counts_map.items():
            key = "".join(bits[q] for q in subsystem)
            marginal[key] = marginal.get(key, 0) + cnt
        counts_map = {k: marginal[k] for k in sorted(marginal)}
    return list(counts_map), np.array(list(counts_map.values()), dtype=float)


def _string_kernel(keys1: list[str], keys2: list[str]) -> np.ndarray:
    return np.array([[hamming_kernel(s, t) for t in keys2] for s in keys1])


def string_cross_terms(ds1, ds2, subsystem=None) -> np.ndarray:
    scale = 2.0 ** (ds1.num_qubits if subsystem is None else len(subsystem))
    out = []
    for m1, m2 in zip(bitstring_counts(ds1), bitstring_counts(ds2)):
        k1, c1 = _string_marginal(m1, subsystem)
        k2, c2 = _string_marginal(m2, subsystem)
        f1, f2 = c1 / ds1.shots_per_setting, c2 / ds2.shots_per_setting
        out.append(scale * (f1 @ _string_kernel(k1, k2) @ f2))
    return np.array(out)


def string_purity_terms(ds, subsystem=None) -> np.ndarray:
    scale = 2.0 ** (ds.num_qubits if subsystem is None else len(subsystem))
    n_m = ds.shots_per_setting
    out = []
    for m in bitstring_counts(ds):
        keys, cnt = _string_marginal(m, subsystem)
        total = cnt @ _string_kernel(keys, keys) @ cnt
        out.append(scale * (total - n_m) / (n_m * (n_m - 1.0)))
    return np.array(out)


def _string_same_data(ds1, ds2) -> bool:
    """One record: the same object, or one device id with equal counts."""
    return ds1 is ds2 or (
        ds1.device_id == ds2.device_id and bitstring_counts(ds1) == bitstring_counts(ds2)
    )


def string_overlap(ds1, ds2, subsystem=None) -> Estimate:
    if _string_same_data(ds1, ds2):
        return _mean_with_jackknife(string_purity_terms(ds1, subsystem))
    return _mean_with_jackknife(string_cross_terms(ds1, ds2, subsystem))


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

    o_m, pa_m, pb_m = float(o.mean()), float(pa.mean()), float(pb.mean())
    loo = np.array([fmax_of(*x) for x in zip(_loo_means(o), _loo_means(pa), _loo_means(pb))])
    return FidelityEstimate(
        overlap=o_m,
        purity_1=pa_m,
        purity_2=pb_m,
        fmax=fmax_of(o_m, pa_m, pb_m),
        se_overlap=_jackknife_se(_loo_means(o)),
        se_purity_1=_jackknife_se(_loo_means(pa)),
        se_purity_2=_jackknife_se(_loo_means(pb)),
        se_fmax=_jackknife_se(loo),
        devices=(a.device_id, b.device_id),
        subsystem=subsystem,
        n_settings=len(o),
        unreliable=not (max(pa_m, pb_m) > 0.0),
    )
