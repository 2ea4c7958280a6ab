"""The benchmark workloads, covering the three verification routes.

Each workload has a ``setup(seed)`` that imports the program and draws the
run's inputs, and a ``job(inputs, tracer)`` that runs one closed-loop job on
those inputs from fresh objects and returns the names of the correctness
checks it failed.  The seed changes the inputs, never their sizes.  Every
job of a run repeats the seed's inputs, so the counts of one job are the
counts of every job.

Every call into a public function of ``qsim``, ``hamlearn``, ``randmeas``,
``repostore`` or ``verifyproto`` sits inside a span named
``<layer>.<call>``; the spans are the only instrumentation, the program
itself is unchanged.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Acceptance tolerances, as in tests/test_acceptance.py and `reproduce`.
EXACT_DISTANCE = 1e-6
SIGMAS = 5.0
CHEATER_REJECT_MIN = 0.9


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(workload.encode(), "little") % (2**32)
    return np.random.default_rng([seed, tag])


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


# ---------------------------------------------------------------------------
# hubbard-exact: the exact Hamiltonian-learning route on a 2x5 lattice


@dataclass(frozen=True)
class HubbardExactInputs:
    u: float
    curve_seeds: list[int]


class HubbardExact:
    name = "hubbard-exact"
    rows, cols, nup, ndown = 2, 5, 5, 5
    n_shuffles = 100

    def setup(self, seed: int) -> HubbardExactInputs:
        import qverify.hamlearn  # noqa: F401  (import cost belongs to set-up)
        import qverify.qsim  # noqa: F401

        rng = _rng(seed, self.name)
        # below U ~ 2.5 the eigensolver tolerance leaves a 36th row above the
        # independence threshold, selection stops early and the job's cost
        # would depend on the seed
        return HubbardExactInputs(u=float(rng.uniform(3.0, 8.0)), curve_seeds=_seeds(rng, self.n_shuffles))

    def job(self, inp: HubbardExactInputs, tr) -> list[str]:
        from qverify.hamlearn import (
            KRowEngine,
            build_constraints,
            build_operator_basis,
            k_matrix_exact,
            learning_curve,
            parameter_distance,
            reconstruct,
        )
        from qverify.qsim import FermionBasis, LatticeSpec, assemble_operator, ground_state, hubbard_terms

        lat = LatticeSpec(self.rows, self.cols, j=1.0, u=inp.u, nup=self.nup, ndown=self.ndown)
        with tr.span("qsim.fermion_basis"):
            basis = FermionBasis(lat)
        with tr.span("qsim.assemble_operator"):
            ham = assemble_operator(basis, hubbard_terms(lat))
        with tr.span("qsim.ground_state"):
            _, state = ground_state(ham, basis)
        with tr.span("hamlearn.build_operator_basis"):
            op_basis = build_operator_basis(lat)
        m = op_basis.m
        with tr.span("hamlearn.krow_engine"):
            engine = KRowEngine(state, op_basis)
        with tr.span("hamlearn.build_constraints"):
            cs = build_constraints(state, op_basis, m, engine=engine)
        with tr.span("hamlearn.k_matrix_exact"):
            km = k_matrix_exact(state, op_basis, cs, engine=engine)
        with tr.span("hamlearn.reconstruct"):
            result = reconstruct(km)
            distance = parameter_distance(op_basis.coefficient_vector(), result.coefficients)
        grid = [m // 4, m - 4, m - 3, m - 2, m]
        with tr.span("hamlearn.count_curve"):
            learning_curve(state, op_basis, constraint_grid=grid, seeds=inp.curve_seeds, engine=engine)
        if tr.on:
            rows = cs.rank + cs.provenance["n_rejected_pool"]
            tr.count("hamlearn.build_constraints.rows_evaluated", rows)
            tr.count("hamlearn.build_constraints.rank", cs.rank)
            tr.count("hamlearn.build_constraints.bytes_computed", rows * basis.dim * m * 8)
            tr.count("qsim.sector_dim", basis.dim)
            tr.count("qsim.assemble_operator.nnz", ham.nnz)
            tr.count("hamlearn.phi_bytes", basis.dim * m * 8)
            tr.count("hamlearn.count_curve.shuffles", len(inp.curve_seeds))
        return [] if distance < EXACT_DISTANCE else ["exact-distance"]


# ---------------------------------------------------------------------------
# xplatform: one cross-platform comparison campaign through the repository


@dataclass(frozen=True)
class XPlatformInputs:
    settings_seed: int
    device_seeds: list[int]


class XPlatform:
    name = "xplatform"
    n_qubits, n_settings, n_shots = 6, 500, 512
    devices = ("device-a", "device-b", "device-c")

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int) -> XPlatformInputs:
        import qverify.randmeas  # noqa: F401  (builds the Clifford table)
        import qverify.repostore  # noqa: F401

        rng = _rng(seed, self.name)
        return XPlatformInputs(
            settings_seed=_seeds(rng, 1)[0],
            device_seeds=_seeds(rng, len(self.devices)),
        )

    def job(self, inp: XPlatformInputs, tr) -> list[str]:
        from qverify.qsim import ghz_state
        from qverify.randmeas import collect, estimate_fmax, sample_settings
        from qverify.repostore import Repository, fidelity_to_dict, serialize_dataset

        job_dir = Path(tempfile.mkdtemp(prefix="xplatform-", dir=self.workdir))
        try:
            with tr.span("qsim.ghz_state"):
                state = ghz_state(self.n_qubits)
            with tr.span("randmeas.sample_settings"):
                settings = sample_settings(self.n_qubits, self.n_settings, seed=inp.settings_seed)
            datasets = []
            for device, dseed in zip(self.devices, inp.device_seeds):
                with tr.span("randmeas.collect"):
                    datasets.append(
                        collect(state, settings, self.n_shots, seed=dseed,
                                device_id=device, state_label="ghz-6")
                    )
            with tr.span("repostore.repository"):
                repo = Repository(job_dir / "repo")
            ids = []
            for ds in datasets:
                with tr.span("repostore.serialize_dataset"):
                    text = serialize_dataset(ds)
                path = job_dir / f"{ds.device_id}.json"
                with tr.span("io.write_dataset"):
                    path.write_text(text, encoding="utf-8")
                with tr.span("repostore.ingest"):
                    ids.append(repo.ingest(path))
                if tr.on:
                    tr.count("repostore.dataset_bytes", len(text.encode("utf-8")))
            with tr.span("repostore.compare_matrix"):
                matrix = repo.compare_matrix(ids)
            profile = [tuple(range(k)) for k in range(1, self.n_qubits)] + [None]
            with tr.span("repostore.compare"):
                report = repo.compare(ids[0], ids[1], subsystems=profile)
            with tr.span("randmeas.estimate_fmax"):
                direct = estimate_fmax(datasets[0], datasets[1])
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)

        failed = []
        if not abs(direct.fmax - 1.0) <= SIGMAS * direct.se_fmax:
            failed.append("fmax-within-5-sigma")
        if report["estimates"][-1] != {"subsystem": None, **fidelity_to_dict(direct)}:
            failed.append("compare-bit-identity")
        if matrix["errors"] or any(v is None for row in matrix["matrix"] for v in row):
            failed.append("compare-matrix-complete")
        if tr.on:
            tr.count("randmeas.collect.distinct_outcomes", sum(len(c) for ds in datasets for c in ds.counts))
            kernel = sum(
                len(c1) * len(c2) + len(c1) ** 2 + len(c2) ** 2
                for c1, c2 in zip(datasets[0].counts, datasets[1].counts)
            )
            tr.count("randmeas.estimate_fmax.kernel_entries", kernel)
        return failed


# ---------------------------------------------------------------------------
# energy-verify: delegated energy verification of a 10-qubit XZ chain


@dataclass(frozen=True)
class EnergyInputs:
    instance: object  # verifyproto.HamiltonianInstance
    honest_seed: int
    cheater_seeds: list[int]


class EnergyVerify:
    name = "energy-verify"
    n_qubits = 10
    honest_rounds = 4000
    cheater_rounds = 1000
    cheater_sessions = 4
    test_fraction = 0.5

    def setup(self, seed: int) -> EnergyInputs:
        from qverify.qsim import PauliTerm
        from qverify.verifyproto import HamiltonianInstance, enumerate_functions

        enumerate_functions()  # the trapdoor key table is built once per process
        rng = _rng(seed, self.name)
        n = self.n_qubits
        # transverse-field chain -sum J XX - sum h Z with h < J: the ground
        # energy lies below -sum J, the maximally mixed state sits at 0 and a
        # prover guessing X outcomes keeps only the small Z part
        js = rng.uniform(0.8, 1.2, size=n - 1)
        hs = rng.uniform(0.1, 0.4, size=n)
        terms = [PauliTerm(-float(j), "I" * q + "XX" + "I" * (n - q - 2)) for q, j in enumerate(js)]
        terms += [PauliTerm(-float(h), "I" * q + "Z" + "I" * (n - q - 1)) for q, h in enumerate(hs)]
        total_j = float(js.sum())
        instance = HamiltonianInstance(n, tuple(terms), -0.75 * total_j, -0.25 * total_j)
        seeds = _seeds(rng, 1 + 3 * self.cheater_sessions)
        return EnergyInputs(instance, seeds[0], seeds[1:])

    def job(self, inp: EnergyInputs, tr) -> list[str]:
        from qverify.qsim import QubitBasis, ground_state
        from qverify.repostore import canonical_json
        from qverify.verifyproto import (
            BasisGuessProver,
            HonestProver,
            MixedStateProver,
            WrongTableProver,
            load_instance_text,
            serialize_instance,
            verify_energy,
        )

        with tr.span("verifyproto.serialize_instance"):
            text = serialize_instance(inp.instance)
        with tr.span("verifyproto.load_instance_text"):
            instance = load_instance_text(text)
        with tr.span("verifyproto.instance_matrix"):
            h = instance.matrix()
        with tr.span("qsim.ground_state"):
            exact, ground = ground_state(h, QubitBasis(instance.num_qubits))

        lines: list[str] = []

        def sink(record: dict) -> None:
            with tr.span("repostore.canonical_json"):
                lines.append(canonical_json(record))

        with tr.span("verifyproto.verify_energy"):
            honest = verify_energy(
                instance, HonestProver(ground), self.honest_rounds,
                self.test_fraction, seed=inp.honest_seed, transcript_sink=sink,
            )
        cheaters = [MixedStateProver(instance.num_qubits), BasisGuessProver(ground), WrongTableProver(ground)]
        sessions = []
        for k, prover in enumerate(cheaters):
            seeds = inp.cheater_seeds[k * self.cheater_sessions:(k + 1) * self.cheater_sessions]
            for s in seeds:
                with tr.span("verifyproto.verify_energy"):
                    sessions.append(
                        (k, verify_energy(instance, prover, self.cheater_rounds, self.test_fraction, seed=s))
                    )

        failed = []
        if not (honest.accepted and abs(honest.estimate - exact) <= SIGMAS * honest.std_error):
            failed.append("honest-accepted")
        if len(lines) != honest.n_rounds:
            failed.append("transcript-complete")
        for k in range(len(cheaters)):
            rejected = [not r.accepted for kk, r in sessions if kk == k]
            if not sum(rejected) / len(rejected) > CHEATER_REJECT_MIN:
                failed.append(f"cheater-{type(cheaters[k]).__name__}-rejected")
        if tr.on:
            results = [honest] + [r for _, r in sessions]
            tr.count("repostore.transcript_bytes", sum(len(x.encode("utf-8")) + 1 for x in lines))
            tr.count("verifyproto.verify_energy.rounds", sum(r.n_rounds for r in results))
            tr.count("verifyproto.verify_energy.test_rounds", sum(r.n_test_rounds for r in results))
            tr.count("verifyproto.verify_energy.measurement_rounds",
                     sum(r.n_measurement_rounds for r in results))
            tr.count("verifyproto.verify_energy.test_pass_rate", honest.test_pass_rate)
            tr.count("verifyproto.verify_energy.cheater_reject_frac",
                     sum(not r.accepted for _, r in sessions) / len(sessions))
        return failed


# ---------------------------------------------------------------------------
# protocols: the two device-facing routes, one after the other in each job


class Protocols:
    """A cross-platform campaign, then a delegated energy verification.

    The two routes share one workload so that each run can be long enough
    to be steady; their layers stay apart in the traced run's spans.
    """

    name = "protocols"

    def __init__(self, workdir: Path):
        self.parts = (XPlatform(workdir), EnergyVerify())

    def setup(self, seed: int) -> tuple:
        return tuple(part.setup(seed) for part in self.parts)

    def job(self, inp: tuple, tr) -> list[str]:
        return [check for part, part_inp in zip(self.parts, inp) for check in part.job(part_inp, tr)]


def make(name: str, workdir: Path):
    """The workload called ``name``; ``workdir`` holds files a job writes."""
    table = {
        HubbardExact.name: HubbardExact,
        Protocols.name: lambda: Protocols(workdir),
    }
    return table[name]()


NAMES = (HubbardExact.name, Protocols.name)
