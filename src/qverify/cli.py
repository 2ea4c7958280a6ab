"""Unified command-line front end: subcommand dispatch, config loading,
seed management, and paired human/machine report emission.

Every run writes machine-readable data (canonical JSON, CSV with a
``# config:`` header line, JSON-lines transcripts) next to a human summary
on stdout.  Data files are byte-identical across reruns of the same
configuration and seed; wall-clock timestamps live only in the
``*.meta.json`` sidecar written beside each report.

Exit codes
----------
=====  ==============  ==========================================
code   category        meaning
=====  ==============  ==========================================
0      ok              run completed (verdicts/results are data)
1      internal-error  unexpected exception
2      usage           bad flags or subcommand (argparse)
3      invalid-input   malformed value, file content, or id
4      io-error        missing/unreadable/unwritable file
5      check-failed    a reproduce figure missed its tolerance
=====  ==============  ==========================================

Failures print one JSON object to stderr: ``{"error": {"category", "message"}}``.

Reports: each handler returns a ``Report``; ``dispatch`` writes it once.
The ``config`` header of every file holds the command path, ``--seed``,
``--out`` and every other flag as ``parameters`` (with the values the
handler resolved).  JSON and JSON-lines bodies write non-finite floats as
``null``; CSV cells and the human summary print them as ``nan``.

Seeds: one global ``--seed`` per invocation.  Every stochastic subtask
draws an independent integer ``child_seed(seed, "cli", <labels...>)``, so
subtasks can be reordered or parallelized without perturbing each other.

Config files: ``qverify --config FILE [extra args...]`` loads a JSON
object ``{"command": [...], "arguments": [...], "parameters": {...}}``
and expands it to the equivalent argv; extra args are appended after the
expansion, so explicit flags override file values.

Repository root: ``--root`` flag if given, else the ``QVERIFY_REPO``
environment variable, else ``./qverify-repo``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .hamlearn import (
    KRowEngine,
    build_constraints,
    build_operator_basis,
    k_matrix_exact,
    k_matrix_sampled,
    learning_curve,
    parameter_distance,
    reconstruct,
)
from .hamlearn.curves import fit_loglog_slope
from .ioutil import atomic_write_text
from .qsim import (
    FermionBasis,
    LatticeSpec,
    QuantumState,
    QubitBasis,
    assemble_operator,
    ghz_state,
    ground_state,
    hubbard_terms,
    parse_state_spec,
    reduced_density,
    theta_state,
)
from .randmeas import (
    collect,
    estimate_fmax,
    exact_mode_overlap,
    sample_settings,
    scaling_probe,
)
from .repostore import (
    RepoFormatError,
    Repository,
    canonical_json,
    dataset_to_document,
    fidelity_to_dict,
    json_safe,
    load_dataset_text,
)
from .rng import GENERATOR_ID, child_seed, make_rng
from .verifyproto import (
    BasisGuessProver,
    HonestProver,
    MEASUREMENT_ROUND,
    MixedStateProver,
    TEST_ROUND,
    decoded_distribution,
    delegate_rounds,
    finish_round,
    keygen,
    load_instance_text,
    verify_energy,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_IO = 4
EXIT_CHECK = 5

ERROR_CATEGORIES = {
    EXIT_INTERNAL: "internal-error",
    EXIT_USAGE: "usage",
    EXIT_INVALID: "invalid-input",
    EXIT_IO: "io-error",
    EXIT_CHECK: "check-failed",
}

REPO_ENV_VAR = "QVERIFY_REPO"
DEFAULT_REPO_ROOT = "qverify-repo"

_EPILOG = """\
exit codes:
  0 ok | 1 internal-error | 2 usage | 3 invalid-input | 4 io-error | 5 check-failed

state specs: ghz:N | zero:N | plus:N | theta:V | random:N | amps:a0,a1,...
repository root: --root flag, else $QVERIFY_REPO, else ./qverify-repo
config file:  qverify --config FILE [overrides...]   (JSON: command/arguments/parameters)
"""


@dataclass
class Report:
    """What a handler returns; ``dispatch`` writes and prints it."""

    body: dict
    columns: list[str]
    rows: list[list]
    human: list[str]
    # flag values the handler resolved or renamed, echoed in the config
    parameters: dict = field(default_factory=dict)
    jsonl: list[dict] | None = None
    failed_check: str | None = None  # message of a missed tolerance (exit 5)


# --------------------------------------------------------------------------
# small parsers and emission helpers


def _parse_lattice(text: str) -> tuple[int, int]:
    parts = text.lower().replace("×", "x").split("x")
    if len(parts) != 2:
        raise ValueError(f"lattice {text!r} is not of the form RxC")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"lattice {text!r} is not of the form RxC") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice {text!r} must have positive extent")
    return rows, cols


def _parse_subsystem(text: str | None) -> tuple[int, ...] | None:
    if text is None or text.strip().lower() in ("", "full"):
        return None
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok != "")
    except ValueError:
        raise ValueError(f"subsystem {text!r} must be comma-separated qubit indices") from None


def _parse_shots(text: str) -> int | None:
    if text.strip().lower() == "exact":
        return None
    try:
        shots = int(text)
    except ValueError:
        raise ValueError(f"shots {text!r} must be an integer or 'exact'") from None
    if shots < 1:
        raise ValueError("shots must be positive")
    return shots


def _state_arg(spec: str, seed: int, *labels) -> QuantumState:
    """Parse a --state value; a bare comma list is shorthand for amps:..."""
    if ":" not in spec:
        spec = "amps:" + spec
    return parse_state_spec(spec, rng=make_rng(seed, "cli", *labels, "state"))


def _subsystem_label(sub: tuple[int, ...] | None) -> str:
    return "full" if sub is None else " ".join(str(q) for q in sub)


def _num(value, spec: str) -> str:
    """Human-readable number; a missing (None) or NaN value prints as nan."""
    if value is None or np.isnan(value):
        return "nan"
    return format(value, spec)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(config: dict, columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# config: {canonical_json(config)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _emit(config: dict, stem: str, argv: list[str], report: Report) -> None:
    """Write the paired machine reports (atomic) plus a timestamp sidecar.

    Non-finite floats are null in the JSON and JSON-lines text; CSV cells
    print them as nan."""
    config = json_safe(config)
    out = Path(config["out"])
    paths = [out / f"{stem}.json", out / f"{stem}.csv"]
    atomic_write_text(paths[0], canonical_json({"config": config, **json_safe(report.body)}) + "\n")
    atomic_write_text(paths[1], _csv_text(config, report.columns, report.rows))
    if report.jsonl is not None:
        lines = [canonical_json({"config": config})]
        lines += [canonical_json(json_safe(rec)) for rec in report.jsonl]
        paths.append(out / f"{stem}.jsonl")
        atomic_write_text(paths[-1], "\n".join(lines) + "\n")
    meta = {"config": config, "created_unix": time.time(), "argv": list(argv)}
    atomic_write_text(out / f"{stem}.meta.json", json.dumps(meta, sort_keys=True) + "\n")
    for p in paths:
        print(f"wrote {p}")


def _hubbard_ground_state(lattice: str, j: float, u: float, nup: int, ndown: int):
    rows, cols = _parse_lattice(lattice)
    lat = LatticeSpec(rows, cols, j=j, u=u, nup=nup, ndown=ndown)
    basis = FermionBasis(lat)
    ham = assemble_operator(basis, hubbard_terms(lat))
    energy, state = ground_state(ham, basis)
    return lat, energy, state


def _solution_distance(result, c_true: np.ndarray) -> float:
    """Distance from the true couplings to what the reconstruction recovered.

    Some states are stationary under a whole span of coupling vectors (the
    two-site dimer is: the spin-antisymmetric hopping annihilates its ground
    state), and the reconstruction then reports that span via its candidate
    vectors.  The meaningful error is the distance from the normalized truth
    to the recovered solution span; for a unique solution this reduces to the
    usual sign-gauged vector distance.
    """
    if not result.degenerate:
        return parameter_distance(c_true, result.coefficients)
    c_hat = np.asarray(c_true, dtype=float)
    c_hat = c_hat / np.linalg.norm(c_hat)
    span = np.stack(result.candidates, axis=1)
    q, _ = np.linalg.qr(span)
    return float(np.linalg.norm(c_hat - q @ (q.T @ c_hat)))


# --------------------------------------------------------------------------
# hamlearn


_CURVE_COLUMNS = ["control", "median_distance", "q25", "q75", "gap", "smallest_singular_value"]


def _cmd_hamlearn_run(args) -> Report:
    shots = _parse_shots(args.shots)
    shots_label = "exact" if shots is None else shots
    lat, energy, state = _hubbard_ground_state(args.lattice, args.j, args.u, args.nup, args.ndown)
    op_basis = build_operator_basis(lat)
    if args.constraints < 0:
        raise ValueError(f"constraint count {args.constraints} is negative (0: basis size)")
    n_constraints = args.constraints or op_basis.m
    constraints = build_constraints(
        state,
        op_basis,
        n_constraints,
        shuffle_seed=child_seed(args.seed, "cli", "hamlearn", "constraints"),
    )
    if shots is None:
        km = k_matrix_exact(state, op_basis, constraints)
    else:
        km = k_matrix_sampled(
            state,
            op_basis,
            constraints,
            shots,
            seed=child_seed(args.seed, "cli", "hamlearn", "shots"),
        )
    result = reconstruct(km)
    c_true = op_basis.coefficient_vector()
    distance = _solution_distance(result, c_true)
    smallest = float(result.singular_values[-1])
    rows = [[n_constraints, distance, distance, distance, result.gap, smallest]]
    body = {
        "ground_energy": float(energy),
        "n_constraints": n_constraints,
        "shots": shots_label,
        "distance": distance,
        "gap": float(result.gap),
        "smallest_singular_value": smallest,
        "labels": list(op_basis.labels()),
        "coefficients": [float(c) for c in result.coefficients],
        "true_coefficients": [float(c) for c in c_true],
        "degenerate": bool(result.degenerate),
    }
    mode = "exact" if shots is None else f"{shots} shots/entry"
    target = "recovered solution span" if result.degenerate else "recovered couplings"
    human = [
        f"{args.lattice} lattice (J={args.j}, U={args.u}): ground energy {_num(energy, '.9f')}; "
        f"{op_basis.m} couplings from {n_constraints} constraints ({mode})",
        f"distance from true couplings to {target}: {_num(distance, '.3e')}; "
        f"spectrum gap {_num(result.gap, '.3e')}",
    ]
    return Report(
        body, _CURVE_COLUMNS, rows, human, {"constraints": n_constraints, "shots": shots_label}
    )


# --------------------------------------------------------------------------
# randmeas


def _cmd_randmeas_collect(args) -> Report:
    state = _state_arg(args.state, args.seed, "randmeas")
    settings_seed = (
        args.settings_seed
        if args.settings_seed is not None
        else child_seed(args.seed, "cli", "randmeas", "settings")
    )
    settings = sample_settings(state.num_qubits, args.nu, seed=settings_seed, ensemble=args.ensemble)
    ds = collect(
        state,
        settings,
        args.nm,
        seed=child_seed(args.seed, "cli", "randmeas", "shots"),
        device_id=args.device_id,
        state_label=args.state,
    )
    doc = dataset_to_document(ds)
    ds_path = Path(args.out) / f"dataset-{args.device_id}.json"
    atomic_write_text(ds_path, canonical_json(doc) + "\n")
    print(f"wrote {ds_path}")
    body = {
        "dataset": str(ds_path),
        "digest": doc["digest"],
        "device_id": args.device_id,
        "num_qubits": state.num_qubits,
        "ensemble": args.ensemble,
        "n_settings": args.nu,
        "shots_per_setting": args.nm,
    }
    columns = ["digest", "device_id", "ensemble", "num_qubits", "n_settings", "shots_per_setting"]
    human = [
        f"collected {args.nu} x {args.nm} randomized measurements ({args.ensemble}) "
        f"of {args.state} on {state.num_qubits} qubits: dataset {doc['digest']}"
    ]
    return Report(
        body, columns, [[body[c] for c in columns]], human, {"settings_seed": settings_seed}
    )


_FIDELITY_COLUMNS = [
    "subsystem",
    "fmax",
    "se_fmax",
    "overlap",
    "se_overlap",
    "purity_1",
    "se_purity_1",
    "purity_2",
    "se_purity_2",
    "n_settings",
    "unreliable",
]


def _fidelity_row(est: dict) -> list:
    sub = est.get("subsystem")
    return [
        _subsystem_label(tuple(sub) if sub is not None else None),
        est["fmax"],
        est["se_fmax"],
        est["overlap"],
        est["se_overlap"],
        est["purity_1"],
        est["se_purity_1"],
        est["purity_2"],
        est["se_purity_2"],
        est["n_settings"],
        bool(est["unreliable"]),
    ]


def _cmd_randmeas_compare(args) -> Report:
    sub = _parse_subsystem(args.subsystem)
    ds1, digest1 = load_dataset_text(Path(args.file_1).read_text(encoding="utf-8"))
    ds2, digest2 = load_dataset_text(Path(args.file_2).read_text(encoding="utf-8"))
    est = fidelity_to_dict(estimate_fmax(ds1, ds2, sub))
    body = {"digest_1": digest1, "digest_2": digest2, "estimate": est}
    a, b = est["devices"]
    human = [
        f"Fmax({a}, {b}) = {_num(est['fmax'], '.6f')} +/- {_num(est['se_fmax'], '.6f')} "
        f"[{_subsystem_label(sub)}] from {est['n_settings']} shared settings"
    ]
    return Report(
        body, _FIDELITY_COLUMNS, [_fidelity_row(est)], human, {"subsystem": _subsystem_label(sub)}
    )


def _cmd_randmeas_exact(args) -> Report:
    state1 = _state_arg(args.state, args.seed, "randmeas", "1")
    state2 = _state_arg(args.state2, args.seed, "randmeas", "2") if args.state2 else state1
    sub = _parse_subsystem(args.subsystem)
    est = exact_mode_overlap(
        state1,
        state2,
        ensemble=args.ensemble,
        subsystem=sub,
        n_settings=args.nu,
        seed=child_seed(args.seed, "cli", "randmeas", "settings") if args.nu else None,
    )
    se = est.std_error
    body = {"value": float(est.value), "std_error": se, "n_settings": est.n_settings}
    detail = "ensemble-exact" if se is None else f"std error {_num(se, '.3e')}, {est.n_settings} settings"
    human = [f"exact mode overlap [{_subsystem_label(sub)}] = {_num(est.value, '.12f')} ({detail})"]
    return Report(
        body,
        ["subsystem", "value", "std_error", "n_settings"],
        [[_subsystem_label(sub), float(est.value), se, est.n_settings]],
        human,
        {"state2": args.state2 or args.state, "subsystem": _subsystem_label(sub)},
    )


def _cmd_randmeas_scaling(args) -> Report:
    n_list = [int(tok) for tok in args.n_list.replace(" ", "").split(",") if tok]
    result = scaling_probe(
        n_list,
        error_target=args.target,
        ensemble=args.ensemble,
        seeds=tuple(range(args.repetitions)),
        n_m=args.nm,
        seed=child_seed(args.seed, "cli", "randmeas", "scaling"),
    )
    columns = ["num_qubits", "n_u", "n_m", "budget", "median_error"]
    points = [asdict(p) for p in result.points]
    body = {
        "exponent": float(result.exponent),
        "error_target": float(result.error_target),
        "ensemble": result.ensemble,
        "points": points,
    }
    human = [
        f"measurement budget for error {args.target} grows as 2^({_num(result.exponent, '.2f')} n) "
        f"over n = {n_list} ({args.ensemble} ensemble)"
    ]
    rows = [[p[c] for c in columns] for p in points]
    return Report(body, columns, rows, human, {"n_list": n_list})


# --------------------------------------------------------------------------
# repo


def _repo_root(args) -> Path:
    if args.root:
        return Path(args.root)
    env = os.environ.get(REPO_ENV_VAR)
    return Path(env) if env else Path(DEFAULT_REPO_ROOT)


def _cmd_repo_ingest(args) -> Report:
    root = _repo_root(args)
    ds_id = Repository(root).ingest(args.file)
    body = {"id": ds_id, "file": args.file, "root": str(root)}
    human = [f"ingested {args.file} into {root} as {ds_id}"]
    return Report(body, ["id", "file"], [[ds_id, args.file]], human, {"root": str(root)})


def _cmd_repo_list(args) -> Report:
    root = _repo_root(args)
    entries = Repository(root).list_datasets()
    columns = ["id", "device_id", "state_label", "ensemble", "num_qubits", "n_settings", "shots_per_setting"]
    human = [f"{len(entries)} dataset(s) in {root}"] + [
        f"  {e['id']}  {e['device_id']:<12} {e['state_label']:<12} "
        f"{e['ensemble']:<9} n={e['num_qubits']} NU={e['n_settings']} NM={e['shots_per_setting']}"
        for e in entries
    ]
    rows = [[e[c] for c in columns] for e in entries]
    body = {"root": str(root), "datasets": entries}
    return Report(body, columns, rows, human, {"root": str(root)})


def _cmd_repo_compare(args) -> Report:
    root = _repo_root(args)
    subs = [_parse_subsystem(s) for s in args.subsystems] if args.subsystems else None
    report = Repository(root).compare(args.id_1, args.id_2, subsystems=subs)
    rows = [_fidelity_row(est) for est in report["estimates"]]
    human = [
        f"Fmax[{row[0]}]({est['devices'][0]}, {est['devices'][1]}) = "
        f"{_num(est['fmax'], '.6f')} +/- {_num(est['se_fmax'], '.6f')}"
        for row, est in zip(rows, report["estimates"])
    ]
    labels = [_subsystem_label(s) for s in (subs if subs is not None else [None])]
    return Report(report, _FIDELITY_COLUMNS, rows, human, {"root": str(root), "subsystems": labels})


def _cmd_repo_matrix(args) -> Report:
    root = _repo_root(args)
    sub = _parse_subsystem(args.subsystem)
    report = Repository(root).compare_matrix(list(args.ids), subsystem=sub)
    columns = ["id"] + list(report["ids"])
    rows = [[ds_id] + list(row) for ds_id, row in zip(report["ids"], report["matrix"])]
    human = [f"{len(report['ids'])} x {len(report['ids'])} Fmax matrix [{_subsystem_label(sub)}]"]
    human += ["  " + row[0] + "  " + "  ".join(_num(v, ".4f") for v in row[1:]) for row in rows]
    return Report(
        report, columns, rows, human, {"root": str(root), "subsystem": _subsystem_label(sub)}
    )


# --------------------------------------------------------------------------
# verify


def _instance_ground_state(instance) -> QuantumState:
    return ground_state(instance.matrix(), QubitBasis(instance.num_qubits))[1]


def _check_test_fraction(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"test fraction {value} outside [0, 1]")


def _cmd_verify_run(args) -> Report:
    _check_test_fraction(args.test_fraction)
    instance = load_instance_text(Path(args.instance).read_text(encoding="utf-8"))
    if args.prover == "mixed":
        prover = MixedStateProver(instance.num_qubits)
    else:
        if args.state:
            state = _state_arg(args.state, args.seed, "verify")
            if state.num_qubits != instance.num_qubits:
                raise ValueError(
                    f"state has {state.num_qubits} qubits, instance needs {instance.num_qubits}"
                )
        else:
            state = _instance_ground_state(instance)
        prover = HonestProver(state) if args.prover == "honest" else BasisGuessProver(state)
    transcripts: list[dict] = []
    result = verify_energy(
        instance,
        prover,
        args.rounds,
        test_fraction=args.test_fraction,
        seed=child_seed(args.seed, "cli", "verify", "run"),
        transcript_sink=transcripts.append,
    )
    rd = asdict(result)
    if result.failure is not None:
        rd["failure"] = {
            "round_type": result.failure.round_type,
            "key": result.failure.key_label,
            "image": int(result.failure.image),
            "outcomes": [int(o) for o in result.failure.outcomes],
        }
    body = {"verdict": "accept" if result.accepted else "reject", "result": rd}
    columns = [
        "accepted",
        "estimate",
        "std_error",
        "midpoint",
        "n_rounds",
        "n_test_rounds",
        "n_measurement_rounds",
        "n_test_failures",
    ]
    verdict = "ACCEPT" if result.accepted else "REJECT"
    human = [
        f"{verdict} ({args.prover} prover, {instance.num_qubits}+3 qubit commitments): "
        f"estimate {_num(result.estimate, '.6f')} +/- {_num(result.std_error, '.6f')} "
        f"vs midpoint {_num(result.midpoint, '.6f')}",
        f"{result.n_test_rounds} test rounds ({result.n_test_failures} failures), "
        f"{result.n_measurement_rounds} measurement rounds",
    ]
    return Report(body, columns, [[rd[c] for c in columns]], human, jsonl=transcripts)


def _cmd_verify_delegate(args) -> Report:
    _check_test_fraction(args.test_fraction)
    state = _state_arg(args.state, args.seed, "delegate")
    if not 0 <= args.qubit < state.num_qubits:
        raise ValueError(f"qubit {args.qubit} outside the {state.num_qubits}-qubit state")
    if args.rounds < 1:
        raise ValueError(f"need at least one round (got {args.rounds})")
    prover = HonestProver(state)
    records: list[dict] = []
    decoded_counts = {0: 0, 1: 0}
    n_test = n_pass = 0
    for r in range(args.rounds):
        rng = make_rng(args.seed, "cli", "delegate", r)
        key = keygen(args.basis, rng=rng)
        kind = TEST_ROUND if rng.random() < args.test_fraction else MEASUREMENT_ROUND
        session = prover.open_round(key.table, args.qubit, (), rng)
        transcript, _ = finish_round(kind, key, session)
        if kind == MEASUREMENT_ROUND:
            decoded_counts[transcript.decoded] += 1
        else:
            n_test += 1
            n_pass += int(bool(transcript.verdict))
        records.append(
            {
                "round": r,
                "type": transcript.round_type,
                "basis": args.basis,
                "key": transcript.key_label,
                "image": transcript.image,
                "outcomes": list(transcript.outcomes),
                "verdict": transcript.verdict,
                "decoded": transcript.decoded,
            }
        )
    n_meas = args.rounds - n_test
    born = tv = None
    if state.num_qubits == 1:  # exact decoded statistics exist for one-qubit states only
        dist = decoded_distribution(state, args.basis)
        born = [float(dist[0]), float(dist[1])]
        if n_meas:
            freq = np.array([decoded_counts[0], decoded_counts[1]]) / n_meas
            tv = float(0.5 * np.abs(freq - dist).sum())
    body = {
        "basis": args.basis,
        "qubit": args.qubit,
        "rounds": args.rounds,
        "n_test_rounds": n_test,
        "n_test_passed": n_pass,
        "n_measurement_rounds": n_meas,
        "decoded_counts": {"0": decoded_counts[0], "1": decoded_counts[1]},
        "born": born,
        "tv_distance": tv,
    }
    columns = [
        "basis",
        "rounds",
        "n_test_rounds",
        "n_test_passed",
        "decoded_0",
        "decoded_1",
        "born_0",
        "born_1",
        "tv_distance",
    ]
    row = [args.basis, args.rounds, n_test, n_pass, decoded_counts[0], decoded_counts[1]]
    row += [None, None] if born is None else born
    human = [
        f"delegated {n_meas} {args.basis.upper()}-basis measurement rounds and {n_test} test rounds "
        f"({n_pass} passed) on qubit {args.qubit}",
        f"decoded counts: 0 -> {decoded_counts[0]}, 1 -> {decoded_counts[1]}",
    ]
    if tv is not None:
        human.append(f"TV distance to exact decoded statistics: {_num(tv, '.4f')}")
    return Report(body, columns, [row + [tv]], human, jsonl=records)


# --------------------------------------------------------------------------
# reproduce


def _check(name: str, value: float, requirement: str, passed: bool) -> dict:
    return {"name": name, "value": value, "requirement": requirement, "pass": bool(passed)}


def _curve_table(points) -> tuple[list[list], list[dict]]:
    """CSV rows and JSON records of a learning curve."""
    records = [{c: getattr(p, c) for c in _CURVE_COLUMNS + ["n_seeds"]} for p in points]
    return [[r[c] for c in _CURVE_COLUMNS] for r in records], records


def _fig1b(seed: int):
    """Shot scaling on the 2x2 plaquette: median error ~ shots^(-1/2).

    Half filling keeps the recovered coupling vector unique; the two-site
    dimer's solution span is degenerate and would flatten the curve.
    """
    lat, _, state = _hubbard_ground_state("2x2", 1.0, 8.0, 2, 2)
    op_basis = build_operator_basis(lat)
    constraints = build_constraints(
        state, op_basis, 24, shuffle_seed=child_seed(seed, "cli", "fig1b", "constraints")
    )
    grid = [100, 316, 1000, 3162, 10000]
    reps = [child_seed(seed, "cli", "fig1b", "rep", i) for i in range(20)]
    points = learning_curve(state, op_basis, shot_grid=grid, constraints=constraints, seeds=reps)
    slope = fit_loglog_slope(points)
    checks = [
        _check("loglog-slope", float(slope), "|slope - (-0.5)| <= 0.15", abs(slope + 0.5) <= 0.15)
    ]
    rows, records = _curve_table(points)
    body = {"shot_grid": grid, "slope": float(slope), "points": records}
    human = [f"median-distance vs shots log-log slope: {_num(slope, '.3f')} (want -0.5 +/- 0.15)"]
    return _CURVE_COLUMNS, rows, body, checks, human


def _fig1c(seed: int):
    """Constraint-count curve on the 2x3 lattice: monotone, exact endpoint."""
    lat, _, state = _hubbard_ground_state("2x3", 1.0, 4.0, 3, 3)
    op_basis = build_operator_basis(lat)
    engine = KRowEngine(state, op_basis)
    grid = [5, 16, 17, 18, 20]
    seeds = [child_seed(seed, "cli", "fig1c", "sel", i) for i in range(300)]
    points = learning_curve(state, op_basis, constraint_grid=grid, seeds=seeds, engine=engine)
    medians = [p.median_distance for p in points]
    monotone = all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(medians, medians[1:]))
    checks = [
        _check("median-monotone", float(medians[0] - medians[-1]), "median non-increasing in N_C", monotone),
        _check("endpoint-exact", float(medians[-1]), "median at N_C = M below 1e-6", medians[-1] < 1e-6),
    ]
    rows, records = _curve_table(points)
    body = {"constraint_grid": grid, "points": records}
    human = [
        "median reconstruction distance by constraint count: "
        + ", ".join(f"{n}:{_num(m, '.2e')}" for n, m in zip(grid, medians))
    ]
    return _CURVE_COLUMNS, rows, body, checks, human


def _fig2c(seed: int):
    """Cross-device fidelities for two simulated GHZ(6) devices."""
    n, n_u, n_m = 6, 500, 512
    state = ghz_state(n)
    settings = sample_settings(
        n, n_u, seed=child_seed(seed, "cli", "fig2c", "settings"), ensemble="clifford"
    )
    datasets = [
        collect(
            state,
            settings,
            n_m,
            seed=child_seed(seed, "cli", "fig2c", dev),
            device_id=dev,
            state_label=f"ghz:{n}",
        )
        for dev in ("device-a", "device-b")
    ]
    columns = ["subsystem", "n_a", "fmax", "se_fmax", "exact", "deviation"]
    rows, estimates, checks = [], [], []
    for k in range(1, n + 1):
        sub = None if k == n else tuple(range(k))
        est = estimate_fmax(datasets[0], datasets[1], sub)
        # both devices prepare the same state, so rho_a == rho_b here
        rho_a = reduced_density(state.data, n, tuple(range(k)))
        rho_b = rho_a
        overlap = float(np.real(np.trace(rho_a @ rho_b)))
        purities = (
            float(np.real(np.trace(rho_a @ rho_a))),
            float(np.real(np.trace(rho_b @ rho_b))),
        )
        exact = overlap / max(purities)
        dev = float(est.fmax - exact)
        label = _subsystem_label(sub)
        rows.append([label, k, float(est.fmax), float(est.se_fmax), exact, dev])
        estimates.append({**fidelity_to_dict(est), "exact": exact})
        checks.append(
            _check(
                f"subsystem-{k}-within-5-sigma",
                dev,
                "|Fmax - exact| <= 5 se",
                abs(dev) <= 5 * est.se_fmax,
            )
        )
    full_dev = rows[-1][5]
    checks.append(
        _check("full-system-absolute", full_dev, "|Fmax - 1| < 0.05", abs(full_dev) < 0.05)
    )
    body = {"n_u": n_u, "n_m": n_m, "num_qubits": n, "estimates": estimates}
    human = [
        f"GHZ({n}) devices a vs b, NU={n_u}, NM={n_m}: full-system Fmax = "
        f"{_num(rows[-1][2], '.4f')} +/- {_num(rows[-1][3], '.4f')} (exact 1)"
    ]
    return columns, rows, body, checks, human


def _fig3(seed: int):
    """Delegation mechanics sweep: decoded statistics against Born statistics."""
    thetas = np.linspace(0.0, np.pi, 17)
    n_rounds, n_test = 100000, 20000
    columns = ["basis", "theta", "decoded_freq_0", "born_0", "tv_distance"]
    rows, tvs = [], []
    for basis in ("z", "x"):
        for i, theta in enumerate(thetas):
            state = theta_state(float(theta))
            summary = delegate_rounds(
                state, basis, n_rounds, seed=child_seed(seed, "cli", "fig3", basis, i)
            )
            freq = np.array([summary.decoded_counts[0], summary.decoded_counts[1]]) / n_rounds
            born = decoded_distribution(state, basis)
            tv = float(0.5 * np.abs(freq - born).sum())
            tvs.append(tv)
            rows.append([basis, float(theta), float(freq[0]), float(born[0]), tv])
    failures = 0
    for basis in ("z", "x"):
        summary = delegate_rounds(
            theta_state(0.8),
            basis,
            n_test,
            seed=child_seed(seed, "cli", "fig3", basis, "test"),
            round_type="test",
        )
        failures += summary.n_fail
    max_tv = max(tvs)
    checks = [
        _check("max-tv-distance", max_tv, "TV <= 0.02 at 1e5 rounds", max_tv <= 0.02),
        _check("test-round-failures", float(failures), "0 failures in honest test rounds", failures == 0),
    ]
    body = {
        "rounds_per_point": n_rounds,
        "test_rounds_per_basis": n_test,
        "max_tv_distance": max_tv,
        "test_failures": failures,
    }
    human = [
        f"max TV(decoded, Born) over {{z, x}} x 17 theta values: {_num(max_tv, '.4f')} "
        f"({n_rounds} rounds each); {failures} test-round failures"
    ]
    return columns, rows, body, checks, human


_FIGURES = {
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "fig2c-style": _fig2c,
    "fig3-demo": _fig3,
}


def _cmd_reproduce(args) -> Report:
    columns, rows, body, checks, human = _FIGURES[args.figure](args.seed)
    all_pass = all(c["pass"] for c in checks)
    human = human + [
        f"  [{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: "
        f"{_num(c['value'], '.6g')} ({c['requirement']})"
        for c in checks
    ]
    human.append(("PASS" if all_pass else "FAIL") + f": {args.figure}")
    failed = None
    if not all_pass:
        failed = f"{args.figure}: {sum(not c['pass'] for c in checks)} check(s) failed"
    body = {**body, "checks": checks, "pass": all_pass}
    return Report(body, columns, rows, human, failed_check=failed)


# --------------------------------------------------------------------------
# parser, config expansion, dispatch


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
    parser.add_argument(
        "--out", default="qverify-out", metavar="DIR", help="output directory (default qverify-out)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qverify",
        description="Reproducible experiments: coupling reconstruction, randomized "
        "measurements, a content-addressed dataset repository, and delegated "
        "measurement verification.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="<command>")

    ham = sub.add_parser("hamlearn", help="reconstruct couplings from a stationary state")
    hsub = ham.add_subparsers(dest="subcommand", required=True, metavar="<subcommand>")
    hrun = hsub.add_parser("run", help="one reconstruction on a Hubbard ground state")
    hrun.add_argument("--lattice", default="1x2", metavar="RxC", help="lattice extent (default 1x2)")
    hrun.add_argument("--j", type=float, default=1.0, help="hopping amplitude (default 1)")
    hrun.add_argument("--u", type=float, default=8.0, help="on-site interaction (default 8)")
    hrun.add_argument("--nup", type=int, default=1, help="spin-up particles (default 1)")
    hrun.add_argument("--ndown", type=int, default=1, help="spin-down particles (default 1)")
    hrun.add_argument(
        "--constraints", type=int, default=0, help="constraint count (default: operator-basis size)"
    )
    hrun.add_argument("--shots", default="exact", help="'exact' or shots per matrix entry")
    _add_common(hrun)
    hrun.set_defaults(handler=_cmd_hamlearn_run)

    rand = sub.add_parser("randmeas", help="randomized-measurement collection and estimation")
    rsub = rand.add_subparsers(dest="subcommand", required=True, metavar="<subcommand>")
    rcol = rsub.add_parser("collect", help="simulate one device's randomized measurements")
    rcol.add_argument("--state", required=True, help="state spec (ghz:N, theta:V, amps:..., ...)")
    rcol.add_argument("--nu", type=int, default=100, help="number of settings (default 100)")
    rcol.add_argument("--nm", type=int, default=128, help="shots per setting (default 128)")
    rcol.add_argument("--ensemble", choices=["clifford", "haar"], default="clifford")
    rcol.add_argument("--device-id", default="device", help="device label (default 'device')")
    rcol.add_argument(
        "--settings-seed",
        type=int,
        default=None,
        help="seed for the shared settings; give the same value on every device "
        "whose datasets should be comparable (default: derived from --seed)",
    )
    _add_common(rcol)
    rcol.set_defaults(handler=_cmd_randmeas_collect)
    rcmp = rsub.add_parser("compare", help="cross-device fidelity from two dataset files")
    rcmp.add_argument("file_1", help="first dataset file")
    rcmp.add_argument("file_2", help="second dataset file")
    rcmp.add_argument("--subsystem", default=None, help="comma-separated qubits (default full)")
    _add_common(rcmp, seed=False)
    rcmp.set_defaults(handler=_cmd_randmeas_compare)
    rext = rsub.add_parser("exact", help="ensemble-exact mode overlap between two states")
    rext.add_argument("--state", required=True, help="first state spec")
    rext.add_argument("--state2", default=None, help="second state spec (default: same)")
    rext.add_argument("--subsystem", default=None, help="comma-separated qubits (default full)")
    rext.add_argument("--ensemble", choices=["clifford", "haar"], default="clifford")
    rext.add_argument("--nu", type=int, default=None, help="sampled settings (default: exact average)")
    _add_common(rext)
    rext.set_defaults(handler=_cmd_randmeas_exact)
    rsca = rsub.add_parser("scaling", help="measurement budget vs system size")
    rsca.add_argument("--n-list", default="2,3,4", help="qubit counts (default 2,3,4)")
    rsca.add_argument("--target", type=float, default=0.2, help="error target (default 0.2)")
    rsca.add_argument("--nm", type=int, default=64, help="shots per setting (default 64)")
    rsca.add_argument("--ensemble", choices=["clifford", "haar"], default="clifford")
    rsca.add_argument("--repetitions", type=int, default=5, help="seeds per point (default 5)")
    _add_common(rsca)
    rsca.set_defaults(handler=_cmd_randmeas_scaling)

    repo = sub.add_parser("repo", help="content-addressed measurement dataset repository")
    psub = repo.add_subparsers(dest="subcommand", required=True, metavar="<subcommand>")

    def _repo_leaf(name: str, help_text: str) -> argparse.ArgumentParser:
        leaf = psub.add_parser(name, help=help_text)
        leaf.add_argument("--root", default=None, help=f"repository root (default ${REPO_ENV_VAR})")
        return leaf

    ping = _repo_leaf("ingest", "register a dataset file under its digest")
    ping.add_argument("file", help="dataset file to ingest")
    _add_common(ping, seed=False)
    ping.set_defaults(handler=_cmd_repo_ingest)
    plist = _repo_leaf("list", "list registered datasets")
    _add_common(plist, seed=False)
    plist.set_defaults(handler=_cmd_repo_list)
    pcmp = _repo_leaf("compare", "cross-device fidelity between two registered datasets")
    pcmp.add_argument("id_1", help="first dataset id")
    pcmp.add_argument("id_2", help="second dataset id")
    pcmp.add_argument(
        "--subsystem",
        action="append",
        dest="subsystems",
        metavar="SUBSYSTEM",
        default=None,
        help="comma-separated qubits; repeatable (default full)",
    )
    _add_common(pcmp, seed=False)
    pcmp.set_defaults(handler=_cmd_repo_compare)
    pmat = _repo_leaf("matrix", "pairwise fidelity matrix over registered datasets")
    pmat.add_argument("ids", nargs="+", help="dataset ids")
    pmat.add_argument("--subsystem", default=None, help="comma-separated qubits (default full)")
    _add_common(pmat, seed=False)
    pmat.set_defaults(handler=_cmd_repo_matrix)

    ver = sub.add_parser("verify", help="delegated-measurement energy verification")
    vsub = ver.add_subparsers(dest="subcommand", required=True, metavar="<subcommand>")
    vrun = vsub.add_parser("run", help="full verification protocol against a prover")
    vrun.add_argument("--instance", required=True, help="serialized instance file")
    vrun.add_argument("--rounds", type=int, default=200, help="protocol rounds (default 200)")
    vrun.add_argument(
        "--test-fraction", type=float, default=0.5, help="test-round probability (default 0.5)"
    )
    vrun.add_argument(
        "--prover",
        choices=["honest", "mixed", "basis-guess"],
        default="honest",
        help="prover strategy (default honest)",
    )
    vrun.add_argument(
        "--state", default=None, help="prover state override (default: instance ground state)"
    )
    _add_common(vrun)
    vrun.set_defaults(handler=_cmd_verify_run)
    vdel = vsub.add_parser("delegate", help="raw commit/measure rounds on one state")
    vdel.add_argument("--state", required=True, help="state spec or bare amplitude list")
    vdel.add_argument("--basis", choices=["x", "z"], required=True, help="delegated basis")
    vdel.add_argument("--rounds", type=int, default=100, help="rounds (default 100)")
    vdel.add_argument("--qubit", type=int, default=0, help="delegated qubit (default 0)")
    vdel.add_argument(
        "--test-fraction", type=float, default=0.25, help="test-round probability (default 0.25)"
    )
    _add_common(vdel)
    vdel.set_defaults(handler=_cmd_verify_delegate)

    rep = sub.add_parser("reproduce", help="pinned desk-scale figure reproductions")
    rep.add_argument("figure", choices=sorted(_FIGURES), help="which figure variant to run")
    _add_common(rep)
    rep.set_defaults(handler=_cmd_reproduce)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Expand a leading ``--config FILE`` into the equivalent argv."""
    if not argv or argv[0] != "--config":
        return argv
    if len(argv) < 2:
        raise ValueError("--config needs a file argument")
    raw = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("config file must be a JSON object")
    command, arguments = raw.get("command"), raw.get("arguments", [])
    parameters = raw.get("parameters", {})
    if not _scalars(command) or not command:
        raise ValueError("config 'command' must be a non-empty list of strings or numbers")
    if not _scalars(arguments):
        raise ValueError("config 'arguments' must be a list of strings or numbers")
    if not isinstance(parameters, dict) or not all(
        _scalars(v) or _scalars([v]) for v in parameters.values()
    ):
        raise ValueError("config 'parameters' values must be strings, numbers or lists of them")
    expanded = [str(tok) for tok in command + arguments]
    for key, value in parameters.items():
        flag = "--" + key.replace("_", "-")
        for v in value if isinstance(value, list) else [value]:
            expanded += [flag, str(v)]
    return expanded + argv[2:]


def _scalars(value) -> bool:
    """Whether ``value`` is a list of strings, numbers or booleans."""
    return isinstance(value, list) and all(isinstance(v, (str, int, float)) for v in value)


# namespace entries that are not run parameters
_NOT_PARAMETERS = ("command", "subcommand", "handler", "seed", "out")


def _command(args) -> str:
    return f"{args.command} {args.subcommand}" if "subcommand" in args else args.command


def _stem(args) -> str:
    """Report file stem: the command path, plus the figure for ``reproduce``."""
    stem = _command(args).replace(" ", "_")
    return stem + "_" + args.figure.replace("-", "_") if "figure" in args else stem


def _run_config(args, resolved: dict) -> dict:
    """The ``config`` header of every report: every parsed flag, with the
    values the handler resolved or renamed in place of the raw ones."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    return {
        "command": _command(args),
        "parameters": {**parameters, **resolved},
        "seed": getattr(args, "seed", None),
        "out": args.out,
        "generator": GENERATOR_ID,
    }


def _report_error(code: int, message: str) -> None:
    category = ERROR_CATEGORIES.get(code, "internal-error")
    print(canonical_json({"error": {"category": category, "message": message}}), file=sys.stderr)


def dispatch(argv: list[str]) -> int:
    """Parse and run one invocation, mapping failures to documented exit codes."""
    argv = list(argv)
    try:
        argv = _expand_config(argv)
    except OSError as exc:
        _report_error(EXIT_IO, f"config file: {exc}")
        return EXIT_IO
    except ValueError as exc:  # includes json.JSONDecodeError
        _report_error(EXIT_INVALID, f"config file: {exc}")
        return EXIT_INVALID
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    try:
        report = args.handler(args)
        _emit(_run_config(args, report.parameters), _stem(args), argv, report)
        for line in report.human:
            print(line)
        if report.failed_check is not None:
            _report_error(EXIT_CHECK, report.failed_check)
            return EXIT_CHECK
        return EXIT_OK
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        _report_error(EXIT_IO, str(exc))
        return EXIT_IO
    except (RepoFormatError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _report_error(EXIT_INVALID, str(exc))
        return EXIT_INVALID
    except OSError as exc:
        _report_error(EXIT_IO, str(exc))
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        _report_error(EXIT_INTERNAL, f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
