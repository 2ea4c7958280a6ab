"""Energy-threshold verification over delegated X/Z measurements.

The verifier holds a Hamiltonian whose Pauli factors all lie in {I, X, Z}
and two thresholds a < b.  Each round it importance-samples one term,
delegates the term's first non-identity qubit through the commitment
machinery (one-to-one key for a Z factor, two-to-one for an X factor) and
has the prover measure the remaining support directly.  Test rounds audit
the commitment instead of producing data; a single failed audit rejects
immediately.  The importance-weighted estimator is compared against the
threshold midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..qsim import PauliTerm, assemble_pauli_operator
from ..randmeas import jackknife
from ..repostore.format import (
    FORMAT_VERSION,
    MalformedDatasetError,
    check_digest,
    document_digest,
    is_int,
    is_number,
    parse_envelope,
    seal_document,
)
from ..rng import make_rngs
from .functions import keygen
from .protocol import MEASUREMENT_ROUND, TEST_ROUND, ProtocolTranscript, born_cdf, play_round

_XZ_LETTERS = frozenset("IXZ")


@dataclass(frozen=True)
class HamiltonianInstance:
    """XZ Hamiltonian with yes/no energy thresholds.

    Every Pauli factor must lie in {I, X, Z} so each term is measurable
    with X- and Z-basis settings alone; coefficients must be real and the
    thresholds satisfy a < b.
    """

    num_qubits: int
    terms: tuple[PauliTerm, ...]
    threshold_yes: float
    threshold_no: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.n != self.num_qubits:
                raise ValueError(
                    f"term {t.factors!r} does not act on {self.num_qubits} qubits"
                )
            if not set(t.factors) <= _XZ_LETTERS:
                raise ValueError(f"term {t.factors!r} has factors outside I/X/Z")
            if abs(complex(t.coeff).imag) > 0.0:
                raise ValueError(f"term {t.factors!r} has a non-real coefficient")
        if not self.threshold_yes < self.threshold_no:
            raise ValueError(
                f"thresholds must satisfy a < b, got "
                f"({self.threshold_yes}, {self.threshold_no})"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.threshold_yes + self.threshold_no)

    def matrix(self) -> sp.csr_matrix:
        return assemble_pauli_operator(self.num_qubits, self.terms)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one verification run."""

    accepted: bool
    estimate: float
    std_error: float
    midpoint: float
    n_rounds: int
    n_test_rounds: int
    n_measurement_rounds: int
    n_test_failures: int
    test_pass_rate: float
    failure: ProtocolTranscript | None
    commit_qubits: int


def check_test_fraction(test_fraction: float) -> None:
    """Refuse a test-round fraction outside [0, 1]."""
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError(f"test fraction {test_fraction} outside [0, 1]")


def verify_energy(
    instance: HamiltonianInstance,
    prover,
    n_rounds: int,
    test_fraction: float = 0.5,
    seed: int = 0,
    transcript_sink=None,
) -> VerificationResult:
    """Run the full interactive verification against a prover object.

    Each round draws its term, key and kind from the verifier stream, then
    ``play_round`` plays it against ``prover`` on the prover stream.  Rounds
    are independent; each derives its own two streams from ``seed``, so a
    fixed seed reproduces the transcript exactly.

    ``transcript_sink``, if given, is called with one plain dict per round
    as it completes, for streaming transcript logs.

    Accepts iff no test round fails and the estimate over measurement
    rounds lands strictly below the threshold midpoint.  The first test
    failure rejects immediately, carrying the offending transcript; a
    measurement round announcing an image with no preimage rejects the
    same way, since the held inversion data exposes it outright.
    ``n_rounds`` of the result counts the rounds played, the aborting one
    included.
    """
    if n_rounds < 1:
        raise ValueError(f"need at least one round (got {n_rounds})")
    check_test_fraction(test_fraction)
    sampled = [t for t in instance.terms if t.factors.strip("I")]
    if not sampled:
        raise ValueError("instance has no non-identity terms to sample")
    offset = sum(float(np.real(t.coeff)) for t in instance.terms if not t.factors.strip("I"))
    coeffs = np.array([float(np.real(t.coeff)) for t in sampled])
    weights = np.abs(coeffs)
    one_norm = float(weights.sum())
    if not one_norm > 0:
        raise ValueError("instance has no nonzero non-identity terms to sample")
    # the term draw of Generator.choice(len(sampled), p=weights / one_norm)
    term_cdf = born_cdf(weights / one_norm)
    # per term: delegated qubit and basis (the first non-identity factor),
    # the directly measured rest of the support, and the sign of its value
    plans = []
    for term, c in zip(sampled, coeffs):
        support = [(q, "x" if term.factors[q] == "X" else "z") for q in term.support()]
        plans.append((term.factors, *support[0], tuple(support[1:]), 1.0 if c > 0 else -1.0))

    values: list[float] = []
    n_test = 0
    failure: ProtocolTranscript | None = None
    streams = (make_rngs(seed, family, indices=range(n_rounds)) for family in ("verifier", "prover"))
    for r, vrng, prng in zip(range(n_rounds), *streams):
        term = int(term_cdf.searchsorted(vrng.random(), side="right"))
        factors, dq, dbasis, others, sign = plans[term]
        key = keygen(dbasis, rng=vrng)
        kind = TEST_ROUND if vrng.random() < test_fraction else MEASUREMENT_ROUND
        transcript, direct = play_round(prover, key, kind, dq, others, prng)
        record = {
            "round": r,
            "type": kind,
            "term": factors,
            "qubit": dq,
            "basis": dbasis,
            "key": key.label,
            "image": transcript.image,
        }
        if kind == TEST_ROUND:
            n_test += 1
            record["preimage"] = [int(o) for o in transcript.outcomes]
            record["verdict"] = bool(transcript.verdict)
        else:
            record["equation"] = list(transcript.outcomes)
            if transcript.verdict is False:
                record["verdict"] = False
            else:
                parity = transcript.decoded ^ (sum(int(d) for d in direct) & 1)
                values.append(one_norm * sign * (1.0 - 2.0 * parity))
                record["direct"] = [int(d) for d in direct]
                record["decoded"] = int(transcript.decoded)
                record["value"] = float(values[-1])
        if transcript_sink is not None:
            transcript_sink(record)
        if transcript.verdict is False:
            failure = transcript
            break

    n_meas = len(values)
    mean, se = jackknife(float, values) if n_meas else (float("nan"), float("nan"))
    estimate = offset + mean
    n_fail = 1 if failure is not None and failure.round_type == TEST_ROUND else 0
    accepted = failure is None and n_meas > 0 and estimate < instance.midpoint
    pass_rate = (n_test - n_fail) / n_test if n_test else float("nan")
    return VerificationResult(
        accepted=accepted,
        estimate=estimate,
        std_error=se,
        midpoint=instance.midpoint,
        n_rounds=r + 1,
        n_test_rounds=n_test,
        n_measurement_rounds=n_meas,
        n_test_failures=n_fail,
        test_pass_rate=pass_rate,
        failure=failure,
        commit_qubits=instance.num_qubits + 3,
    )


# ---------------------------------------------------------------------------
# instance (de)serialization, following the package-wide canonical JSON rules


def serialize_instance(instance: HamiltonianInstance) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "record_kind": "hamiltonian-instance",
        "num_qubits": instance.num_qubits,
        "terms": [
            {"coeff": float(np.real(t.coeff)), "factors": t.factors}
            for t in instance.terms
        ],
        "threshold_yes": float(instance.threshold_yes),
        "threshold_no": float(instance.threshold_no),
    }
    return seal_document(doc)[0]


_INSTANCE_KEYS = (
    "format_version",
    "record_kind",
    "num_qubits",
    "terms",
    "threshold_yes",
    "threshold_no",
    "digest",
)


def _is_term(t) -> bool:
    return isinstance(t, dict) and isinstance(t.get("factors"), str) and is_number(t.get("coeff"))


def load_instance_text(text: str) -> HamiltonianInstance:
    """The one reader of an instance file: envelope, field types, digest,
    then the instance's own checks."""
    doc = parse_envelope(text, _INSTANCE_KEYS)
    if doc["record_kind"] != "hamiltonian-instance":
        raise MalformedDatasetError(f"unexpected record kind {doc['record_kind']!r}")
    if not is_int(doc["num_qubits"]):
        raise MalformedDatasetError(f"bad num_qubits {doc['num_qubits']!r}")
    if not isinstance(doc["terms"], list) or not all(_is_term(t) for t in doc["terms"]):
        raise MalformedDatasetError("terms must be a list of {coeff: number, factors: str} objects")
    for key in ("threshold_yes", "threshold_no"):
        if not is_number(doc[key]):
            raise MalformedDatasetError(f"{key} must be a number, not {doc[key]!r}")
    check_digest(doc, document_digest(doc))
    return HamiltonianInstance(
        num_qubits=doc["num_qubits"],
        terms=tuple(PauliTerm(complex(t["coeff"]), t["factors"]) for t in doc["terms"]),
        threshold_yes=float(doc["threshold_yes"]),
        threshold_no=float(doc["threshold_no"]),
    )
