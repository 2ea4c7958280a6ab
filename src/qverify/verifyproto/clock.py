"""Circuit-to-Hamiltonian compilation via history states.

A T-gate circuit on n_c qubits becomes a state on ceil(log2(T+1)) binary
clock qubits plus the n_c computational qubits,

    |eta> = (T+1)^{-1/2} sum_t |t> (x) U_t ... U_1 |0...0>,

together with a certifying operator whose terms penalize (i) non-zero
input at clock value 0, (ii) propagation inconsistencies between adjacent
clock values, (iii) a 0 on the designated output qubit at clock value T,
and (iv) clock basis states beyond T when T+1 is not a power of two.  The
dense operator and its Pauli expansion exist for validation only; they are
never the object handed to the delegation machinery (the expansion
generally contains Y factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qsim import PauliTerm, QuantumState, QubitBasis
from ..qsim.qubit import (
    HADAMARD,
    PAULI_1Q,
    S_GATE,
    apply_single_qubit_gate,
    apply_two_qubit_gate,
)

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

GATE_MATRICES: dict[str, np.ndarray] = {
    "i": PAULI_1Q["I"],
    "x": PAULI_1Q["X"],
    "y": PAULI_1Q["Y"],
    "z": PAULI_1Q["Z"],
    "h": HADAMARD,
    "s": S_GATE,
    "cnot": _CNOT,
    "cz": _CZ,
}

#: qubit count beyond which instances are declared non-simulable here
SIMULABLE_QUBITS = 12

#: decomposition into Pauli strings is only materialized up to this size
_DECOMPOSE_QUBITS = 6

_GAP_ATOL = 1e-8


def _normalize_circuit(circuit) -> tuple[tuple[str, tuple[int, ...]], ...]:
    out = []
    for gate in circuit:
        name = str(gate[0]).lower()
        rest = gate[1:]
        # accept both ("cnot", 0, 1) and the normalized ("cnot", (0, 1))
        if len(rest) == 1 and isinstance(rest[0], (tuple, list)):
            rest = tuple(rest[0])
        qubits = tuple(int(q) for q in rest)
        if name not in GATE_MATRICES:
            raise ValueError(f"unknown gate {name!r}")
        arity = GATE_MATRICES[name].shape[0].bit_length() - 1
        if len(qubits) != arity:
            raise ValueError(
                f"gate {name!r} acts on {arity} qubit(s), got {len(qubits)}"
            )
        if arity not in (1, 2):
            raise ValueError(f"unsupported gate arity {arity}")
        out.append((name, qubits))
    return tuple(out)


def _apply_gate(vec: np.ndarray, n: int, name: str, qubits: tuple[int, ...]) -> np.ndarray:
    m = GATE_MATRICES[name]
    if len(qubits) == 1:
        return apply_single_qubit_gate(vec, n, m, qubits[0])
    return apply_two_qubit_gate(vec, n, m, qubits[0], qubits[1])


def circuit_states(circuit, n_comp: int) -> list[np.ndarray]:
    """Partial evolutions U_t ... U_1 |0...0> for t = 0 .. T."""
    circuit = _normalize_circuit(circuit)
    for _, qubits in circuit:
        if any(not 0 <= q < n_comp for q in qubits):
            raise ValueError(f"gate qubits {qubits} outside 0..{n_comp - 1}")
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")
    vec = np.zeros(1 << n_comp, dtype=complex)
    vec[0] = 1.0
    states = [vec]
    for name, qubits in circuit:
        vec = _apply_gate(vec, n_comp, name, qubits)
        states.append(vec)
    return states


def clock_qubits(t_count: int) -> int:
    """Binary clock width for t = 0 .. T: ceil(log2(T+1))."""
    return int(t_count).bit_length() if t_count > 0 else 0


def build_clock_state(circuit, n_comp: int) -> QuantumState:
    """History state of the circuit; clock register first, then data."""
    states = circuit_states(circuit, n_comp)
    t_count = len(states) - 1
    n_clk = clock_qubits(t_count)
    dim_c = 1 << n_comp
    eta = np.zeros((1 << n_clk) * dim_c, dtype=complex)
    for t, vec in enumerate(states):
        eta[t * dim_c : (t + 1) * dim_c] = vec
    eta /= np.sqrt(t_count + 1)
    return QuantumState(eta, QubitBasis(n_clk + n_comp))


def pauli_expansion(matrix: np.ndarray, n: int) -> tuple[PauliTerm, ...]:
    """Expansion of a 2^n x 2^n Hermitian matrix over Pauli strings.

    The string with masks (x, z) has coefficient
    i^{popcount(x & z)} / 2^n * sum_c (-1)^{popcount(c & z)} M[c, c ^ x],
    so gathering M[c, c ^ x] for every x and applying one Walsh-Hadamard
    transform over c yields all 4^n coefficients.  Terms come out in
    ``itertools.product("IXYZ", repeat=n)`` order; coefficients of
    magnitude 1e-12 or below are dropped.
    """
    if matrix.shape != (1 << n, 1 << n):
        raise ValueError("matrix shape does not match qubit count")
    if n > _DECOMPOSE_QUBITS:
        raise ValueError(f"expansion limited to {_DECOMPOSE_QUBITS} qubits")
    dim = 1 << n
    cols = np.arange(dim)
    xs = cols[:, None]
    coef = np.asarray(matrix, dtype=complex)[cols, cols ^ xs].reshape((dim,) + (2,) * n)
    for axis in range(1, n + 1):
        even, odd = np.split(coef, 2, axis=axis)
        coef = np.concatenate((even + odd, even - odd), axis=axis)
    i_powers = np.array([1, 1j, -1, -1j])[np.bitwise_count(xs & cols) % 4]
    coef = coef.reshape(dim, dim) * i_powers / dim  # [x_mask, z_mask]
    # base-4 digit d of a string's index is its letter "IXYZ"[d] on that qubit
    digits = (np.arange(dim * dim)[:, None] >> (2 * np.arange(n - 1, -1, -1))) & 3
    weights = 1 << np.arange(n - 1, -1, -1)
    values = coef[((digits == 1) | (digits == 2)) @ weights, (digits >= 2) @ weights]
    return tuple(
        PauliTerm(complex(values[k]), "".join("IXYZ"[d] for d in digits[k]))
        for k in np.flatnonzero(np.abs(values) > 1e-12)
    )


@dataclass(frozen=True)
class ClockInstance:
    """History state plus the certifying operator of one circuit."""

    circuit: tuple
    n_comp: int
    n_clock: int
    t_count: int
    output_qubit: int
    eta: QuantumState
    hamiltonian: np.ndarray
    h_prop: np.ndarray
    pauli_terms: tuple[PauliTerm, ...] | None
    threshold_yes: float
    threshold_no: float

    @property
    def num_qubits(self) -> int:
        return self.n_clock + self.n_comp


def build_clock_instance(circuit, n_comp: int, output_qubit: int | None = None) -> ClockInstance:
    """Compile a circuit into a history state and certifying operator.

    Thresholds come from the operator's exact spectrum: with ground energy
    e0 and first distinct level e1, the yes/no cut is placed at one third
    and two thirds of the gap.
    """
    circuit = _normalize_circuit(circuit)
    states = circuit_states(circuit, n_comp)
    t_count = len(states) - 1
    n_clk = clock_qubits(t_count)
    n = n_clk + n_comp
    if n > SIMULABLE_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the {SIMULABLE_QUBITS}-qubit simulability bound"
        )
    if output_qubit is None:
        output_qubit = n_comp - 1
    if not 0 <= output_qubit < n_comp:
        raise ValueError(f"output qubit {output_qubit} outside 0..{n_comp - 1}")

    dim_c = 1 << n_comp
    dim = (1 << n_clk) * dim_c

    def block(t1: int, t2: int) -> tuple[slice, slice]:
        return (
            slice(t1 * dim_c, (t1 + 1) * dim_c),
            slice(t2 * dim_c, (t2 + 1) * dim_c),
        )

    comp = np.arange(dim_c)
    eye_c = np.eye(dim_c, dtype=complex)

    h_in = np.zeros((dim, dim), dtype=complex)
    h_in[block(0, 0)] = np.diag(np.bitwise_count(comp).astype(complex))

    h_out = np.zeros((dim, dim), dtype=complex)
    out_bit = (comp >> (n_comp - 1 - output_qubit)) & 1
    h_out[block(t_count, t_count)] = np.diag((1 - out_bit).astype(complex))

    h_prop = np.zeros((dim, dim), dtype=complex)
    for t in range(1, t_count + 1):
        name, qubits = circuit[t - 1]
        u = np.column_stack(
            [_apply_gate(eye_c[:, j].copy(), n_comp, name, qubits) for j in range(dim_c)]
        )
        h_prop[block(t, t)] += 0.5 * eye_c
        h_prop[block(t - 1, t - 1)] += 0.5 * eye_c
        h_prop[block(t, t - 1)] -= 0.5 * u
        h_prop[block(t - 1, t)] -= 0.5 * u.conj().T

    h_clock = np.zeros((dim, dim), dtype=complex)
    for t in range(t_count + 1, 1 << n_clk):
        h_clock[block(t, t)] = eye_c

    h = h_in + h_prop + h_out + h_clock
    w = np.linalg.eigvalsh(h)
    e0 = float(w[0])
    above = w[w > e0 + _GAP_ATOL]
    if above.size == 0:
        raise ValueError("certifying operator has no spectral gap")
    e1 = float(above[0])
    threshold_yes = e0 + (e1 - e0) / 3.0
    threshold_no = e0 + 2.0 * (e1 - e0) / 3.0

    eta = build_clock_state(circuit, n_comp)
    terms = pauli_expansion(h, n) if n <= _DECOMPOSE_QUBITS else None

    return ClockInstance(
        circuit=circuit,
        n_comp=n_comp,
        n_clock=n_clk,
        t_count=t_count,
        output_qubit=output_qubit,
        eta=eta,
        hamiltonian=h,
        h_prop=h_prop,
        pauli_terms=terms,
        threshold_yes=threshold_yes,
        threshold_no=threshold_no,
    )


#: three-gate circuit on two qubits whose output qubit ends deterministically 1
MINIMAL_CIRCUIT: tuple = (("x", 0), ("cnot", 0, 1), ("h", 0))


def minimal_clock_instance() -> ClockInstance:
    """The smallest end-to-end example: T=3 gates, 2 data qubits, 4 in all."""
    return build_clock_instance(MINIMAL_CIRCUIT, n_comp=2, output_qubit=1)
