"""End-to-end tests of the command-line surface via dispatch()."""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qverify.cli import dispatch
from qverify.hamlearn import KRowEngine, build_constraints, build_operator_basis, reconstruct
from qverify.qsim import LatticeSpec, PauliTerm, hubbard_ground_state
from qverify.repostore import canonical_json, document_digest
from qverify.rng import child_seed
from qverify.verifyproto import HamiltonianInstance, serialize_instance


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory) -> Path:
    # 4-qubit transverse-field Ising chain, thresholds bracketing its
    # ground energy -3.427034 against the product-state floor
    terms = [PauliTerm(-1.0, "XXII"), PauliTerm(-1.0, "IXXI"), PauliTerm(-1.0, "IIXX")]
    terms += [PauliTerm(-0.5, "I" * i + "Z" + "I" * (3 - i)) for i in range(4)]
    inst = HamiltonianInstance(4, tuple(terms), -2.5, -1.85)
    path = tmp_path_factory.mktemp("inst") / "instance.json"
    path.write_text(serialize_instance(inst))
    return path


class TestDispatchBasics:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "hamlearn" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert dispatch(["verify", "--help"]) == 0

    def test_unknown_flag_exits_nonzero_and_names_it(self, capsys):
        code = dispatch(["hamlearn", "run", "--bogus-flag", "1"])
        assert code == 2
        assert "--bogus-flag" in capsys.readouterr().err

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_invalid_value_maps_to_invalid_input(self, tmp_path, capsys):
        code = dispatch(
            ["hamlearn", "run", "--shots", "banana", "--out", str(tmp_path / "o")]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "invalid-input"
        assert "banana" in err["error"]["message"]

    def test_missing_file_maps_to_io_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = dispatch(
            ["verify", "run", "--instance", str(tmp_path / "missing.json"), "--out", str(out)]
        )
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "io-error"
        # no partial outputs on failure
        assert not out.exists() or not any(out.iterdir())


class TestHamlearnRun:
    def test_dimer_exact_distance_below_1e_8(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = dispatch(
            ["hamlearn", "run", "--lattice", "1x2", "--shots", "exact", "--out", str(out)]
        )
        assert code == 0
        lines = _csv_lines(out / "hamlearn_run.csv")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "control,median_distance,q25,q75,gap,smallest_singular_value"
        distance = float(lines[2].split(",")[1])
        assert distance < 1e-8

    def test_truth_lies_in_the_null_space_below_rank(self, tmp_path):
        # 12 rows leave an 8-dimensional null space: the distance runs to all
        # of it, not to one or two of its vectors
        out = tmp_path / "out"
        argv = ["hamlearn", "run", "--lattice", "2x3", "--nup", "3", "--ndown", "3", "--u", "4"]
        assert dispatch(argv + ["--constraints", "12", "--seed", "5", "--out", str(out)]) == 0
        body = _read_json(out / "hamlearn_run.json")
        assert body["degenerate"] is True
        assert body["distance"] < 1e-10

    def test_sampled_run_reports_distance_and_config(self, tmp_path):
        out = tmp_path / "out"
        code = dispatch(
            [
                "hamlearn",
                "run",
                "--shots",
                "500",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = _read_json(out / "hamlearn_run.json")
        assert body["config"]["parameters"]["shots"] == 500
        assert body["config"]["seed"] == 3
        assert np.isfinite(body["distance"])
        assert len(body["coefficients"]) == len(body["true_coefficients"])

    def test_reruns_are_byte_identical_modulo_out_dir(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert (
                dispatch(
                    ["hamlearn", "run", "--shots", "400", "--seed", "11", "--out", str(out)]
                )
                == 0
            )
        for stem in ("hamlearn_run.json", "hamlearn_run.csv"):
            texts = [
                (out / stem).read_text().replace(str(out), "OUT") for out in outs
            ]
            assert texts[0] == texts[1]

    def test_sparse_sector_reruns_are_byte_identical(self, tmp_path):
        # the 2x4 half-filled sector is solved by Lanczos, which starts from
        # a fixed vector, so two runs in one process write the same bytes
        outs = [tmp_path / "a", tmp_path / "b"]
        argv = ["hamlearn", "run", "--lattice", "2x4", "--u", "4.0", "--nup", "4", "--ndown", "4"]
        for out in outs:
            assert dispatch(argv + ["--constraints", "30", "--seed", "0", "--out", str(out)]) == 0
        for stem in ("hamlearn_run.json", "hamlearn_run.csv"):
            texts = [(out / stem).read_text().replace(str(out), "OUT") for out in outs]
            assert texts[0] == texts[1]

    def test_exact_run_reconstructs_from_the_rows_selection_tested(self, tmp_path):
        # one engine serves selection and K, so the written couplings are
        # those of the very rows build_constraints accepted, to the last bit
        out = tmp_path / "out"
        argv = ["hamlearn", "run", "--lattice", "2x2", "--nup", "2", "--ndown", "2", "--u", "4"]
        assert dispatch(argv + ["--out", str(out)]) == 0
        lat = LatticeSpec(2, 2, j=1.0, u=4.0, nup=2, ndown=2)
        _, state = hubbard_ground_state(lat)
        ob = build_operator_basis(lat)
        eng = KRowEngine(state, ob)
        seed = child_seed(0, "cli", "hamlearn", "constraints")
        cs = build_constraints(state, ob, ob.m, shuffle_seed=seed, engine=eng)
        want = reconstruct(eng.rows(cs.ops)).coefficients
        assert _read_json(out / "hamlearn_run.json")["coefficients"] == [float(c) for c in want]

    def test_negative_constraint_count_is_refused_before_the_eigensolve(
        self, monkeypatch, tmp_path, capsys
    ):
        def eigensolve(lat):
            raise RuntimeError("the ground state was computed")

        monkeypatch.setattr("qverify.cli.hubbard_ground_state", eigensolve)
        out = tmp_path / "out"
        argv = ["hamlearn", "run", "--lattice", "3x4", "--constraints", "-1", "--out", str(out)]
        assert dispatch(argv) == 3
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"
        assert not out.exists()

    def test_oversized_constraint_count_is_refused_before_the_eigensolve(
        self, monkeypatch, tmp_path, capsys
    ):
        def eigensolve(lat):
            raise RuntimeError("the ground state was computed")

        monkeypatch.setattr("qverify.cli.hubbard_ground_state", eigensolve)
        out = tmp_path / "out"
        argv = ["hamlearn", "run", "--lattice", "1x2", "--constraints", "9", "--out", str(out)]
        assert dispatch(argv) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == "requested 9 constraints but the pool has 8"
        assert not out.exists()

    def test_timestamps_only_in_meta_sidecar(self, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["hamlearn", "run", "--out", str(out)]) == 0
        data = (out / "hamlearn_run.json").read_text()
        assert "created_unix" not in data
        meta = _read_json(out / "hamlearn_run.meta.json")
        assert meta["created_unix"] > 0
        assert meta["config"]["command"] == "hamlearn run"


@pytest.fixture(scope="module")
def two_datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("rm")
    for device, seed in (("alpha", 1), ("beta", 2)):
        code = dispatch(
            [
                "randmeas",
                "collect",
                "--state",
                "ghz:3",
                "--nu",
                "40",
                "--nm",
                "64",
                "--device-id",
                device,
                "--settings-seed",
                "7",
                "--seed",
                str(seed),
                "--out",
                str(root),
            ]
        )
        assert code == 0
    return root / "dataset-alpha.json", root / "dataset-beta.json"


class TestRandmeasCommands:
    def test_collect_writes_dataset_and_reports(self, two_datasets):
        ds_path, _ = two_datasets
        assert ds_path.exists()
        report = _read_json(ds_path.parent / "randmeas_collect.json")
        assert report["n_settings"] == 40
        assert report["shots_per_setting"] == 64

    def test_compare_full_system(self, two_datasets, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = dispatch(
            ["randmeas", "compare", str(two_datasets[0]), str(two_datasets[1]), "--out", str(out)]
        )
        assert code == 0
        est = _read_json(out / "randmeas_compare.json")["estimate"]
        assert 0.5 < est["fmax"] < 1.5
        assert "Fmax" in capsys.readouterr().out

    def test_compare_subsystem(self, two_datasets, tmp_path):
        out = tmp_path / "cmp"
        code = dispatch(
            [
                "randmeas",
                "compare",
                str(two_datasets[0]),
                str(two_datasets[1]),
                "--subsystem",
                "0,1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert _read_json(out / "randmeas_compare.json")["estimate"]["subsystem"] == [0, 1]

    def test_mismatched_settings_is_invalid_input(self, two_datasets, tmp_path, capsys):
        out = tmp_path / "other"
        assert (
            dispatch(
                [
                    "randmeas",
                    "collect",
                    "--state",
                    "ghz:3",
                    "--nu",
                    "40",
                    "--nm",
                    "64",
                    "--settings-seed",
                    "99",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        code = dispatch(
            [
                "randmeas",
                "compare",
                str(two_datasets[0]),
                str(out / "dataset-device.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"

    def test_compare_single_setting_reports_nan_error_bar(self, tmp_path, capsys):
        # one shared setting leaves the jackknife standard error undefined;
        # it is data (null in JSON, "nan" on stdout), not a crash
        out = tmp_path / "one"
        for device, seed in (("alpha", "1"), ("beta", "2")):
            argv = ["randmeas", "collect", "--state", "ghz:3", "--nu", "1", "--nm", "32"]
            argv += ["--device-id", device, "--settings-seed", "5", "--seed", seed]
            assert dispatch(argv + ["--out", str(out)]) == 0
        code = dispatch(
            [
                "randmeas",
                "compare",
                str(out / "dataset-alpha.json"),
                str(out / "dataset-beta.json"),
                "--out",
                str(out / "cmp"),
            ]
        )
        assert code == 0
        assert _read_json(out / "cmp" / "randmeas_compare.json")["estimate"]["se_fmax"] is None
        assert "+/- nan" in capsys.readouterr().out

    def test_exact_self_overlap_is_one(self, tmp_path):
        out = tmp_path / "ex"
        code = dispatch(["randmeas", "exact", "--state", "ghz:2", "--out", str(out)])
        assert code == 0
        body = _read_json(out / "randmeas_exact.json")
        assert abs(body["value"] - 1.0) < 1e-12

    def test_scaling_emits_points_and_exponent(self, tmp_path):
        out = tmp_path / "sc"
        code = dispatch(
            [
                "randmeas",
                "scaling",
                "--n-list",
                "2,3",
                "--target",
                "0.25",
                "--repetitions",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = _read_json(out / "randmeas_scaling.json")
        assert len(body["points"]) == 2
        assert np.isfinite(body["exponent"])

    def test_scaling_single_width_reports_nan_exponent(self, tmp_path, capsys):
        # one width leaves the exponent undefined; it is data, where it used
        # to exit 3 ("non-finite float nan not representable")
        out = tmp_path / "sc"
        argv = ["randmeas", "scaling", "--n-list", "2", "--repetitions", "2"]
        assert dispatch(argv + ["--out", str(out)]) == 0
        assert '"exponent":null' in (out / "randmeas_scaling.json").read_text()
        assert "2^(nan n)" in capsys.readouterr().out


class TestRepoCommands:
    @pytest.fixture()
    def repo_env(self, tmp_path, monkeypatch):
        root = tmp_path / "repo"
        monkeypatch.setenv("QVERIFY_REPO", str(root))
        out = tmp_path / "data"
        ids = []
        for device, seed in (("alpha", 1), ("beta", 2)):
            assert (
                dispatch(
                    [
                        "randmeas",
                        "collect",
                        "--state",
                        "ghz:2",
                        "--nu",
                        "30",
                        "--nm",
                        "32",
                        "--device-id",
                        device,
                        "--settings-seed",
                        "5",
                        "--seed",
                        str(seed),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            assert (
                dispatch(
                    ["repo", "ingest", str(out / f"dataset-{device}.json"), "--out", str(out)]
                )
                == 0
            )
            ids.append(_read_json(out / "repo_ingest.json")["id"])
        return root, out, ids

    def test_ingest_list_compare_matrix(self, repo_env, tmp_path):
        root, out, ids = repo_env
        code = dispatch(["repo", "list", "--out", str(out)])
        assert code == 0
        listed = _read_json(out / "repo_list.json")["datasets"]
        assert sorted(e["id"] for e in listed) == sorted(ids)

        code = dispatch(["repo", "compare", ids[0], ids[1], "--out", str(out)])
        assert code == 0
        report = _read_json(out / "repo_compare.json")
        assert report["estimates"][0]["fmax"] > 0.3

        code = dispatch(["repo", "matrix", ids[0], ids[1], "--out", str(out)])
        assert code == 0
        matrix = _read_json(out / "repo_matrix.json")["matrix"]
        assert matrix[0][0] == 1.0 and matrix[1][1] == 1.0
        assert matrix[0][1] == matrix[1][0]

    def test_matrix_over_mismatched_widths_prints_missing_cells(self, repo_env, capsys):
        _, out, ids = repo_env
        argv = ["randmeas", "collect", "--state", "ghz:3", "--nu", "30", "--nm", "32"]
        assert dispatch(argv + ["--device-id", "gamma", "--out", str(out)]) == 0
        assert dispatch(["repo", "ingest", str(out / "dataset-gamma.json"), "--out", str(out)]) == 0
        wide = _read_json(out / "repo_ingest.json")["id"]
        code = dispatch(["repo", "matrix", ids[0], wide, "--out", str(out)])
        assert code == 0
        report = _read_json(out / "repo_matrix.json")
        assert report["matrix"][0][1] is None and report["errors"]
        assert "nan" in capsys.readouterr().out

    def test_compare_unknown_id_is_invalid_input(self, repo_env, capsys):
        root, out, ids = repo_env
        code = dispatch(["repo", "compare", ids[0], "0" * 16, "--out", str(out)])
        assert code == 3

    @pytest.mark.parametrize("bad", ["../index", "../../x"])
    def test_an_id_naming_a_path_is_unknown_and_opens_nothing_outside(
        self, repo_env, bad, tmp_path, monkeypatch, capsys
    ):
        # these ids used to open <root>/index.json and <root>/../x.json and
        # report the parse error of a file outside datasets/
        root, out, ids = repo_env
        (tmp_path / "x.json").write_text("{}")
        opened = []
        for name in ("read_bytes", "read_text"):
            real = getattr(Path, name)
            monkeypatch.setattr(Path, name, lambda self, *a, _real=real, **kw: opened.append(self) or _real(self, *a, **kw))
        message = str(KeyError(f"unknown dataset id {bad!r}"))
        capsys.readouterr()
        for pair in ([bad, ids[0]], [ids[0], bad]):
            assert dispatch(["repo", "compare", *pair, "--root", str(root), "--out", str(out / "c")]) == 3
            err = json.loads(capsys.readouterr().err)["error"]
            assert (err["category"], err["message"]) == ("invalid-input", message)
        assert not (out / "c").exists()
        assert dispatch(["repo", "matrix", ids[0], bad, "--root", str(root), "--out", str(out / "m")]) == 0
        errors = _read_json(out / "m" / "repo_matrix.json")["errors"]
        assert errors == {f"{ids[0]},{bad}": message, f"{bad},{bad}": message}
        read = [p for p in opened if p.parent != out / "m"]
        assert read and all(p.parent == root / "datasets" for p in read)

    @pytest.mark.parametrize(
        "field,value", [("device_id", 7), ("provenance", [1, 2]), ("num_qubits", True)]
    )
    def test_mistyped_dataset_field_is_invalid_input(self, repo_env, field, value, capsys):
        # with the digest recomputed, each of these used to be ingested
        # (exit 0) or to crash the ingest (exit 1)
        root, out, _ = repo_env
        argv = ["randmeas", "collect", "--state", "zero:1", "--nu", "4", "--nm", "8"]
        assert dispatch(argv + ["--device-id", "one", "--out", str(out)]) == 0
        doc = _read_json(out / "dataset-one.json")
        doc[field] = value
        doc["digest"] = document_digest(doc)
        bad = out / "mistyped.json"
        bad.write_text(canonical_json(doc) + "\n")
        before = sorted(root.rglob("*"))
        capsys.readouterr()
        code = dispatch(["repo", "ingest", str(bad), "--out", str(out / "rejected")])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"
        assert sorted(root.rglob("*")) == before
        assert not (out / "rejected").exists()

    @pytest.mark.parametrize("empty", ["no-settings", "no-shots"])
    def test_empty_dataset_is_refused(self, repo_env, empty, capsys):
        # both used to be stored with exit 0, and two setting-free files
        # compared to nan with exit 0
        root, out, _ = repo_env
        doc = _read_json(out / "dataset-alpha.json")
        if empty == "no-settings":
            doc["settings"], doc["counts"] = [], []
        else:
            doc["counts"] = [[] for _ in doc["settings"]]
            doc["shots_per_setting"] = 0
        doc["digest"] = document_digest(doc)
        bad = out / "empty.json"
        bad.write_text(canonical_json(doc) + "\n")
        before = sorted(root.rglob("*"))
        capsys.readouterr()
        assert dispatch(["repo", "ingest", str(bad), "--out", str(out / "rejected")]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "invalid-input"
        assert ("non-empty" if empty == "no-settings" else "at least one shot") in err["message"]
        assert sorted(root.rglob("*")) == before
        assert not (out / "rejected").exists()
        code = dispatch(["randmeas", "compare", str(bad), str(bad), "--out", str(out / "cmp")])
        assert code == 3
        assert not (out / "cmp").exists()

    def test_rejected_ingest_creates_no_repository(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        fresh = tmp_path / "fresh"
        code = dispatch(["repo", "ingest", str(bad), "--root", str(fresh), "--out", str(tmp_path / "o")])
        assert code == 3
        assert not fresh.exists()

    def test_reading_a_missing_root_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        out = tmp_path / "o"
        assert dispatch(["repo", "list", "--root", str(missing), "--out", str(out)]) == 0
        assert _read_json(out / "repo_list.json")["datasets"] == []
        assert dispatch(["repo", "compare", "0" * 16, "1" * 16, "--root", str(missing), "--out", str(out)]) == 3
        assert dispatch(["repo", "matrix", "0" * 16, "--root", str(missing), "--out", str(out)]) == 0
        assert _read_json(out / "repo_matrix.json")["errors"]
        assert not missing.exists()

    def test_root_flag_overrides_env(self, repo_env, tmp_path, capsys):
        _, out, _ = repo_env
        other = tmp_path / "other-root"
        code = dispatch(["repo", "list", "--root", str(other), "--out", str(out)])
        assert code == 0
        assert _read_json(out / "repo_list.json")["datasets"] == []


class TestVerifyCommands:
    def test_honest_run_accepts_and_logs_transcripts(self, instance_file, tmp_path):
        out = tmp_path / "vr"
        code = dispatch(
            [
                "verify",
                "run",
                "--instance",
                str(instance_file),
                "--rounds",
                "300",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = _read_json(out / "verify_run.json")
        assert body["verdict"] == "accept"
        assert body["result"]["commit_qubits"] == 7
        lines = (out / "verify_run.jsonl").read_text().splitlines()
        assert len(lines) == 301  # config header + one record per round
        first = json.loads(lines[1])
        assert first["type"] in ("test", "measurement")

    def test_mixed_prover_rejected(self, instance_file, tmp_path):
        out = tmp_path / "vr"
        code = dispatch(
            [
                "verify",
                "run",
                "--instance",
                str(instance_file),
                "--rounds",
                "300",
                "--prover",
                "mixed",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert _read_json(out / "verify_run.json")["verdict"] == "reject"

    def test_state_override_must_match_width(self, instance_file, tmp_path, capsys):
        code = dispatch(
            [
                "verify",
                "run",
                "--instance",
                str(instance_file),
                "--state",
                "ghz:2",
                "--out",
                str(tmp_path / "vr"),
            ]
        )
        assert code == 3

    def test_mixed_prover_refuses_a_state(self, instance_file, tmp_path, capsys):
        # the mixed prover holds no state, so a --state would be recorded
        # in the report's config and never used
        out = tmp_path / "vr"
        argv = ["verify", "run", "--instance", str(instance_file), "--prover", "mixed"]
        assert dispatch(argv + ["--state", "ghz:3", "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"
        assert not out.exists()

    @pytest.mark.parametrize(
        "width,field,value",
        [
            (4, "terms", 5),
            (4, "terms", [5]),
            (2, "terms", [{"coeff": True, "factors": "ZZ"}]),
            (1, "num_qubits", True),
            (2, "num_qubits", "2"),
            (2, "threshold_yes", "-2"),
        ],
    )
    def test_mistyped_instance_field_is_invalid_input(self, width, field, value, tmp_path, capsys):
        # with the digest recomputed, the first two used to exit 1 and the
        # rest were converted and run (exit 0)
        terms = [PauliTerm(-1.0, "Z" * width), PauliTerm(-0.5, "X" + "I" * (width - 1))]
        doc = json.loads(serialize_instance(HamiltonianInstance(width, tuple(terms), -2.0, -1.0)))
        doc[field] = value
        doc["digest"] = document_digest(doc)
        path = tmp_path / "instance.json"
        path.write_text(canonical_json(doc) + "\n")
        out = tmp_path / "vr"
        code = dispatch(["verify", "run", "--instance", str(path), "--rounds", "20", "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"
        assert not out.exists()

    def test_delegate_transcripts_and_counts(self, tmp_path):
        out = tmp_path / "vd"
        code = dispatch(
            [
                "verify",
                "delegate",
                "--state",
                "0.6,0.8",
                "--basis",
                "x",
                "--rounds",
                "60",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = _read_json(out / "verify_delegate.json")
        assert body["n_test_rounds"] + body["n_measurement_rounds"] == 60
        assert body["n_test_passed"] == body["n_test_rounds"]
        counts = body["decoded_counts"]
        assert counts["0"] + counts["1"] == body["n_measurement_rounds"]
        lines = (out / "verify_delegate.jsonl").read_text().splitlines()
        assert len(lines) == 61
        assert body["tv_distance"] is not None

    def test_delegate_on_qubit_0_of_a_wider_state(self, tmp_path):
        # exact decoded statistics exist for one-qubit states only; a wider
        # state on the default qubit 0 used to exit 3 after playing every round
        out = tmp_path / "vd"
        argv = ["verify", "delegate", "--state", "ghz:3", "--basis", "x", "--rounds", "40"]
        assert dispatch(argv + ["--seed", "1", "--out", str(out)]) == 0
        body = _read_json(out / "verify_delegate.json")
        assert body["qubit"] == 0
        assert body["born"] is None and body["tv_distance"] is None
        counts = body["decoded_counts"]
        assert counts["0"] + counts["1"] == body["n_measurement_rounds"]

    def test_delegate_state_spec_forms_agree(self, tmp_path):
        results = []
        for spec in ("0.6,0.8", "amps:0.6,0.8"):
            out = tmp_path / spec.replace(":", "_").replace(",", "-")
            assert (
                dispatch(
                    [
                        "verify",
                        "delegate",
                        "--state",
                        spec,
                        "--basis",
                        "z",
                        "--rounds",
                        "40",
                        "--seed",
                        "2",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            results.append(_read_json(out / "verify_delegate.json")["decoded_counts"])
        assert results[0] == results[1]


class TestConfigFile:
    def test_config_file_expands_to_flags(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": ["hamlearn", "run"],
                    "parameters": {"lattice": "1x2", "shots": "exact", "seed": 4},
                }
            )
        )
        out = tmp_path / "out"
        code = dispatch(["--config", str(cfg), "--out", str(out)])
        assert code == 0
        body = _read_json(out / "hamlearn_run.json")
        assert body["config"]["seed"] == 4
        assert body["distance"] < 1e-8

    def test_explicit_flags_override_config_values(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"command": ["hamlearn", "run"], "parameters": {"seed": 4}})
        )
        out = tmp_path / "out"
        code = dispatch(["--config", str(cfg), "--seed", "9", "--out", str(out)])
        assert code == 0
        assert _read_json(out / "hamlearn_run.json")["config"]["seed"] == 9

    def test_malformed_config_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2, 3]")
        assert dispatch(["--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"command": ["hamlearn", "run"], "parameters": [1, 2]},
            {"command": 5},
            {"command": ["hamlearn", "run"], "arguments": 7},
            {"command": []},
            {"command": "hamlearn run"},
            {"parameters": {"lattice": "1x2"}},
            {"command": ["hamlearn", "run"], "arguments": [{"lattice": "1x2"}]},
            {"command": ["hamlearn", "run"], "parameters": {"lattice": None}},
            {"command": ["hamlearn", "run"], "parameters": {"lattice": [["1x2"]]}},
        ],
    )
    def test_mistyped_config_field_is_invalid_input(self, doc, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert dispatch(["--config", str(cfg), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"
        assert not out.exists()

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert dispatch(["--config", str(tmp_path / "missing.json")]) == 4
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "io-error"


# Count flags must be positive; --constraints 0 means the operator-basis size.
_BAD_COUNTS = {
    "scaling-nm-0": ["randmeas", "scaling", "--nm", "0"],
    "scaling-repetitions-0": ["randmeas", "scaling", "--repetitions", "0"],
    "scaling-empty-n-list": ["randmeas", "scaling", "--n-list", ","],
    "delegate-rounds-negative": ["verify", "delegate", "--state", "ghz:1", "--basis", "x", "--rounds", "-3"],
    "run-rounds-negative": ["verify", "run", "--instance", "{instance}", "--rounds", "-3"],
    "run-rounds-0": ["verify", "run", "--instance", "{instance}", "--rounds", "0"],
    "hamlearn-constraints-negative": ["hamlearn", "run", "--constraints", "-5"],
}


@pytest.mark.parametrize("name", sorted(_BAD_COUNTS))
def test_non_positive_count_flag_is_invalid_input(name, instance_file, tmp_path, capsys):
    argv = [a.format(instance=instance_file) for a in _BAD_COUNTS[name]]
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"
    assert not out.exists()


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_scaling_target_must_be_positive_and_finite(target, tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch(["randmeas", "scaling", "--target", target, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "invalid-input"
    assert "error target" in err["message"]
    assert not out.exists()


def test_scaling_unreachable_target_is_invalid_input(tmp_path, capsys):
    # N_U stops at 4 = 2^20 / 2^18 settings, short of a 1e-9 error
    out = tmp_path / "out"
    argv = ["randmeas", "scaling", "--n-list", "2", "--target", "1e-9", "--nm", "262144", "--repetitions", "1"]
    assert dispatch(argv + ["--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "invalid-input"
    assert "budget cap" in err["message"]
    assert not out.exists()


# --nu 0 is a count, not an absent flag, and Haar settings cannot be
# enumerated: both name the flag and the reason
_BAD_NU = {
    "exact-nu-0": (["--nu", "0"], "must be positive"),
    "exact-haar-without-nu": (["--ensemble", "haar"], "no exact enumeration"),
}


@pytest.mark.parametrize("name", sorted(_BAD_NU))
def test_randmeas_exact_bad_nu_is_invalid_input(name, tmp_path, capsys):
    flags, reason = _BAD_NU[name]
    out = tmp_path / "out"
    assert dispatch(["randmeas", "exact", "--state", "ghz:2", *flags, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "invalid-input"
    assert "--nu" in err["message"] and reason in err["message"]
    assert not out.exists()


# One test-fraction check for both verify commands, made before the
# instance's eigensolve or any round
_TEST_FRACTION_COMMANDS = {
    "run": ["verify", "run", "--instance", "{instance}"],
    "delegate": ["verify", "delegate", "--state", "ghz:2", "--basis", "x"],
}


@pytest.mark.parametrize("fraction", ["1.5", "-0.25"])
@pytest.mark.parametrize("command", sorted(_TEST_FRACTION_COMMANDS))
def test_bad_test_fraction_is_invalid_input(
    command, fraction, instance_file, tmp_path, capsys, monkeypatch
):
    import qverify.cli as cli

    def no_eigensolve(instance):
        raise AssertionError("eigensolve ran before the test-fraction check")

    monkeypatch.setattr(cli, "_instance_ground_state", no_eigensolve)
    argv = [a.format(instance=instance_file) for a in _TEST_FRACTION_COMMANDS[command]]
    out = tmp_path / "out"
    assert dispatch(argv + ["--test-fraction", fraction, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"category": "invalid-input", "message": f"test fraction {float(fraction)} outside [0, 1]"}
    assert not out.exists()


@pytest.mark.parametrize("nm", ["-1", "0"])
def test_collect_without_shots_is_refused_before_sampling(nm, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["randmeas", "collect", "--state", "ghz:2", "--nu", "3", "--nm", nm, "--out", str(out)]
    assert dispatch(argv) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"category": "invalid-input", "message": "need at least one shot per setting"}
    assert not out.exists()


def _wide_instance_file(path: Path, n: int) -> str:
    terms = (PauliTerm(-1.0, "XX" + "I" * (n - 2)), PauliTerm(-0.5, "Z" + "I" * (n - 1)))
    path.write_text(serialize_instance(HamiltonianInstance(n, terms, -1.0, 0.0)))
    return str(path)


# Inputs whose arrays outgrow the 128 TiB user address space: a 44-qubit
# state vector is 256 TiB (a 45-qubit real Gaussian draw as much), and the
# first index array of a 44-qubit instance's operator 128 TiB.  The
# allocation fails at once, whatever the memory overcommit policy, and
# nothing is touched.
_TOO_LARGE = {
    "collect-ghz-44": ["randmeas", "collect", "--state", "ghz:44"],
    "collect-plus-44": ["randmeas", "collect", "--state", "plus:44"],
    "collect-random-45": ["randmeas", "collect", "--state", "random:45"],
    "run-honest-44": ["verify", "run", "--instance", "{instance_44}"],
}


@pytest.mark.parametrize("name", sorted(_TOO_LARGE))
def test_input_too_large_to_simulate_is_invalid_input(name, tmp_path, capsys):
    files = {"instance_44": _wide_instance_file(tmp_path / "wide44.json", 44)}
    argv = [a.format(**files) for a in _TOO_LARGE[name]]
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "invalid-input"
    assert err["message"].startswith("input too large to simulate: ")
    assert not out.exists()


def test_mixed_run_on_a_44_qubit_instance_commits_only_the_qubits_it_reads(tmp_path):
    # the honest prover cannot hold this instance's state (the exit-3 case
    # above); the mixed prover's rounds read at most two of its qubits
    out = tmp_path / "out"
    argv = ["verify", "run", "--instance", _wide_instance_file(tmp_path / "wide44.json", 44)]
    assert dispatch(argv + ["--prover", "mixed", "--out", str(out)]) == 0
    body = _read_json(out / "verify_run.json")
    assert body["verdict"] == "reject"
    lines = (out / "verify_run.jsonl").read_text().splitlines()
    assert len(lines) == 1 + body["result"]["n_rounds"]  # config header + one record per round


def test_mixed_run_on_a_64_qubit_instance_is_invalid_input(tmp_path, capsys):
    # the prover draws its basis state as one int64
    out = tmp_path / "out"
    argv = ["verify", "run", "--instance", _wide_instance_file(tmp_path / "wide64.json", 64)]
    assert dispatch(argv + ["--prover", "mixed", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {
        "category": "invalid-input",
        "message": "the mixed prover draws its basis state as one int64: at most 63 qubits",
    }
    assert not out.exists()


def test_honest_run_on_a_14_qubit_chain_stays_sparse(tmp_path):
    # the instance's dense matrix alone would be 4 GiB
    import tracemalloc

    n = 14
    terms = [PauliTerm(-1.0, "I" * q + "XX" + "I" * (n - q - 2)) for q in range(n - 1)]
    terms += [PauliTerm(-0.25, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)]
    path = tmp_path / "chain14.json"
    path.write_text(serialize_instance(HamiltonianInstance(n, tuple(terms), -9.75, -3.25)))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = dispatch(["verify", "run", "--instance", str(path), "--rounds", "50", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert _read_json(out / "verify_run.json")["verdict"] == "accept"
    assert peak < 256 * 2**20


def test_honest_run_on_an_empty_10_qubit_instance_is_invalid_input(tmp_path, capsys):
    # the all-zero operator's ground state is solved; the verifier refuses it
    path = tmp_path / "empty10.json"
    path.write_text(serialize_instance(HamiltonianInstance(10, (), -1.0, 0.0)))
    out = tmp_path / "out"
    assert dispatch(["verify", "run", "--instance", str(path), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"category": "invalid-input", "message": "instance has no non-identity terms to sample"}
    assert not out.exists()


# a non-finite coupling reaches the eigensolver on either side of its
# dense/sparse crossover (dim 4 and dim 4,900) and is refused there
_NON_FINITE_COUPLINGS = {
    "2x4-u-nan": ["--lattice", "2x4", "--nup", "4", "--ndown", "4", "--u", "nan"],
    "1x2-j-inf": ["--j", "inf"],
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_COUPLINGS))
def test_non_finite_coupling_is_invalid_input(name, tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch(["hamlearn", "run", *_NON_FINITE_COUPLINGS[name], "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"category": "invalid-input", "message": "operator has non-finite entries"}
    assert not out.exists()


_STATE_COMMANDS = {
    "delegate": ["verify", "delegate", "--basis", "x", "--rounds", "5"],
    "collect": ["randmeas", "collect", "--nu", "3", "--nm", "4"],
}


@pytest.mark.parametrize("spec", ["theta:nan", "theta:inf", "amps:nan,1", "amps:inf,1"])
@pytest.mark.parametrize("command", sorted(_STATE_COMMANDS))
def test_non_finite_state_spec_is_invalid_input(command, spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch([*_STATE_COMMANDS[command], "--state", spec, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"category": "invalid-input", "message": f"state spec '{spec}' has a non-finite value"}
    assert not out.exists()


@pytest.mark.parametrize("action", ["error", "default"])
def test_overflowing_amplitudes_are_invalid_input(action, tmp_path, capsys):
    # the squared amplitudes overflow the norm; the spec is refused, with no
    # RuntimeWarning on the way, whether such a warning would raise or print
    spec = "amps:1e308,1e308"
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        assert dispatch([*_STATE_COMMANDS["collect"], "--state", spec, "--out", str(out)]) == 3
    assert seen == []
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"category": "invalid-input", "message": f"state spec '{spec}': the amplitudes' norm overflows"}
    assert not out.exists()


class TestReproduce:
    @pytest.mark.parametrize("figure", ["fig1b", "fig1c", "fig2c-style", "fig3-demo"])
    def test_figure_passes_and_writes_reports(self, figure, tmp_path):
        out = tmp_path / "fig"
        code = dispatch(["reproduce", figure, "--out", str(out)])
        assert code == 0
        stem = "reproduce_" + figure.replace("-", "_")
        body = _read_json(out / f"{stem}.json")
        assert body["pass"] is True
        assert all(c["pass"] for c in body["checks"])
        lines = _csv_lines(out / f"{stem}.csv")
        assert lines[0].startswith("# config: ")
        assert len(lines) > 2

    def test_reproduce_reruns_byte_identical(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert dispatch(["reproduce", "fig3-demo", "--out", str(out)]) == 0
        for stem in ("reproduce_fig3_demo.json", "reproduce_fig3_demo.csv"):
            texts = [(out / stem).read_text().replace(str(out), "OUT") for out in outs]
            assert texts[0] == texts[1]

    def test_failed_check_exits_check_failed(self, tmp_path, monkeypatch, capsys):
        import qverify.cli as cli

        def broken(seed):
            checks = [{"name": "always-fails", "value": 1.0, "requirement": "x", "pass": False}]
            return ["col"], [[1.0]], {}, checks, ["stub"]

        monkeypatch.setitem(cli._FIGURES, "fig1b", broken)
        out = tmp_path / "fig"
        code = dispatch(["reproduce", "fig1b", "--out", str(out)])
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "check-failed"
        # the data and verdict are still written before the nonzero exit
        assert _read_json(out / "reproduce_fig1b.json")["pass"] is False

    def test_fig1c_fails_when_one_shuffle_has_another_null_dimension(self, tmp_path, monkeypatch, capsys):
        import qverify.cli as cli

        real_curve = cli.learning_curve

        def one_shuffle_off(*args, **kwargs):
            points = real_curve(*args, **kwargs)
            points[2].null_dim_max += 1  # one seed at one N_C: no median moves
            return points

        monkeypatch.setattr(cli, "learning_curve", one_shuffle_off)
        out = tmp_path / "fig"
        assert dispatch(["reproduce", "fig1c", "--out", str(out)]) == 5
        checks = {c["name"]: c for c in _read_json(out / "reproduce_fig1c.json")["checks"]}
        assert checks["null-dim"]["pass"] is False and checks["null-dim"]["value"] == 1.0
        assert checks["in-span"]["pass"] and checks["endpoint-exact"]["pass"]


def _output_digest(out: Path, stem: str) -> str:
    """SHA-256 over a run's data files, leaving out the ``config`` headers
    (they echo the ``--out`` path): the JSON body, the bytes of a dataset
    file it names in place of that file's path, the CSV rows and the
    JSON-lines records."""
    h = hashlib.sha256()
    body = _read_json(out / f"{stem}.json")
    body.pop("config")
    dataset = body.pop("dataset", None)
    h.update(canonical_json(body).encode())
    if dataset is not None:
        h.update(Path(dataset).read_bytes())
    for suffix in (".csv", ".jsonl"):
        path = out / f"{stem}{suffix}"
        if path.exists():
            for line in path.read_text().splitlines()[1:]:
                h.update(line.encode() + b"\n")
    return h.hexdigest()


# Seeded output pinned by digest: rewriting the round engine, the Pauli
# operators or the estimators beneath these commands must not move a byte.
# Braced names are the placeholder values of ``config_inputs``.
_PINNED_RUNS = {
    "verify-run-honest": (
        ["verify", "run", "--instance", "{instance}", "--rounds", "400", "--seed", "7"],
        "verify_run",
        "6d9488b6fbe81fd5bbcd677d89d63497a17856aeff1080bf8537e23f1ef37f55",
    ),
    "verify-run-mixed": (
        ["verify", "run", "--instance", "{instance}", "--rounds", "400", "--prover", "mixed", "--seed", "7"],
        "verify_run",
        "91d519330d0903193a7bf7faba29698962385f6e1d8789a0ff584edc680e79ff",
    ),
    "verify-run-basis-guess": (
        ["verify", "run", "--instance", "{instance}", "--rounds", "400", "--prover", "basis-guess", "--seed", "7"],
        "verify_run",
        "b90a84eb44aa9a3a18838c588954804be35fd8f4f0ada7715ad9cc4f5eb5c119",
    ),
    "verify-delegate-x-q0": (
        ["verify", "delegate", "--state", "theta:0.7", "--basis", "x", "--rounds", "300", "--seed", "4"],
        "verify_delegate",
        "1af950e1826fde81349795dd62eb71ef3e20fd54e8866e82ad8934b88e1fec48",
    ),
    "verify-delegate-z-q0": (
        ["verify", "delegate", "--state", "theta:0.7", "--basis", "z", "--rounds", "300", "--seed", "4"],
        "verify_delegate",
        "1353d8fd548fa5075b86ed8e588d5b597eec8d97730714663456eb00c4eb8c95",
    ),
    "verify-delegate-x-q1": (
        ["verify", "delegate", "--state", "ghz:3", "--qubit", "1", "--basis", "x", "--rounds", "300", "--seed", "4"],
        "verify_delegate",
        "249736dca6036e90d06ad2c77ec7d6c80ce2855f1b666d5e07edee48bc1d61ef",
    ),
    "verify-delegate-z-q1": (
        ["verify", "delegate", "--state", "ghz:3", "--qubit", "1", "--basis", "z", "--rounds", "300", "--seed", "4"],
        "verify_delegate",
        "060fa4f045255667c6e3f14afc4d03edb67effb5df89a0481440b1be3662cb2d",
    ),
    "reproduce-fig3-demo": (
        ["reproduce", "fig3-demo"],
        "reproduce_fig3_demo",
        "419105d6db96de9680009ef4f550b86b52f66e7b4efee8ebc39d208c49a382cf",
    ),
    # the cross-platform route, on the two seeded datasets of ``two_datasets``
    "randmeas-compare-full": (
        ["randmeas", "compare", "{file_1}", "{file_2}"],
        "randmeas_compare",
        "3e2ded37fa1ee142156f6fb3bc8b790286378f5a786952f450a881f9972c070e",
    ),
    "randmeas-compare-01": (
        ["randmeas", "compare", "{file_1}", "{file_2}", "--subsystem", "0,1"],
        "randmeas_compare",
        "14685d73185d754854ac907cb89990db34296ed48b669fe58283aecaddaa01ba",
    ),
    # the dataset writer's bytes, for each ensemble
    "randmeas-collect-clifford": (
        ["randmeas", "collect", "--state", "ghz:3", "--nu", "40", "--nm", "64", "--seed", "5"],
        "randmeas_collect",
        "6c78d69aaf838e0433c320a3bcd53256d014a2eab48323f3a058eed8b468a6e3",
    ),
    "randmeas-collect-haar": (
        ["randmeas", "collect", "--state", "random:2", "--nu", "12", "--nm", "32", "--ensemble", "haar", "--seed", "6"],
        "randmeas_collect",
        "198a65ad609a208e6dfc90b96c5fb937f53e02be53c36bfe5f10151cd0167d30",
    ),
    "randmeas-exact-ghz-random": (
        ["randmeas", "exact", "--state", "ghz:2", "--state2", "random:2"],
        "randmeas_exact",
        "30c2b00fa3a07631c27c359d98e39862cb560c16ffeb489e8e096f723a0f72bb",
    ),
    "repo-compare": (
        ["repo", "compare", "{id_1}", "{id_2}", "--root", "{root}", "--subsystem", "0", "--subsystem", "full"],
        "repo_compare",
        "e832cf3c1b7fa7d1ef5d4ceb87764d96832861cc082f35dbb5cddd27253db452",
    ),
    # a 3,136-state sector: above the dense/sparse crossover, so Lanczos
    # writes the same bytes whatever the BLAS thread count
    "hamlearn-run-2x4-3+3": (
        ["hamlearn", "run", "--lattice", "2x4", "--nup", "3", "--ndown", "3", "--u", "4"],
        "hamlearn_run",
        "3380da87cc30b72154ff85ee1e7f6e054a63c1ffb06cc287809f74d4f2069a6b",
    ),
    # Born-sampled K on sectors of at most BORN_MAX_DIM states: 36 states
    # here and in fig1b's 2x2 plaquette, each entry eigensolving a dense
    # commutator of the engine's dense constraint operator
    "hamlearn-run-2x2-2+2-born": (
        ["hamlearn", "run", "--lattice", "2x2", "--nup", "2", "--ndown", "2", "--shots", "1000", "--seed", "3"],
        "hamlearn_run",
        "fc8c1b4e3d17e82fe9139cc0e0f8d938be6de0401e272729ee2b06f928ac7b82",
    ),
    "reproduce-fig1b": (
        ["reproduce", "fig1b"],
        "reproduce_fig1b",
        "423719da39f2885fca8b840b8fb0b4a861fa424d109428d6ed4b5f13afe18229",
    ),
    "repo-matrix": (
        ["repo", "matrix", "{id_1}", "{id_2}", "--root", "{root}"],
        "repo_matrix",
        "9e9af1da32538582da5ef2c72017a01239a5e4d2df2b6aa6967d722e3db2816f",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_seeded_output_matches_pinned_digest(name, config_inputs, tmp_path):
    argv, stem, expected = _PINNED_RUNS[name]
    out = tmp_path / "out"
    assert dispatch([a.format(**config_inputs) for a in argv] + ["--out", str(out)]) == 0
    assert _output_digest(out, stem) == expected


@pytest.fixture(scope="module")
def config_inputs(tmp_path_factory, two_datasets, instance_file) -> dict:
    """Placeholder values for the argv of ``_CONFIG_RUNS``: input files and a
    repository holding the two datasets."""
    root = tmp_path_factory.mktemp("cfg") / "repo"
    ids = []
    for path in two_datasets:
        out = root.parent / "ingest"
        assert dispatch(["repo", "ingest", str(path), "--root", str(root), "--out", str(out)]) == 0
        ids.append(_read_json(out / "repo_ingest.json")["id"])
    return {
        "file_1": str(two_datasets[0]),
        "file_2": str(two_datasets[1]),
        "instance": str(instance_file),
        "root": str(root),
        "id_1": ids[0],
        "id_2": ids[1],
    }


# The full config header of one run of every subcommand, as recorded before
# the header was derived from the parsed flags.  Upper-case names stand for
# the placeholder values of ``config_inputs`` and for the --out directory.
_CONFIG_RUNS = {
    "hamlearn run": (
        ["hamlearn", "run", "--nup", "1", "--shots", "300", "--seed", "3"],
        {"command": "hamlearn run", "parameters": {"constraints": 4, "j": 1.0, "lattice": "1x2", "ndown": 1, "nup": 1, "shots": 300, "u": 8.0}, "seed": 3},
    ),
    "randmeas collect": (
        ["randmeas", "collect", "--state", "ghz:2", "--nu", "5", "--nm", "8", "--seed", "4"],
        {"command": "randmeas collect", "parameters": {"device_id": "device", "ensemble": "clifford", "nm": 8, "nu": 5, "settings_seed": 3913618977714074224, "state": "ghz:2"}, "seed": 4},
    ),
    "randmeas compare": (
        ["randmeas", "compare", "{file_1}", "{file_2}", "--subsystem", "0, 1"],
        {"command": "randmeas compare", "parameters": {"file_1": "FILE_1", "file_2": "FILE_2", "subsystem": "0 1"}, "seed": None},
    ),
    "randmeas exact": (
        ["randmeas", "exact", "--state", "ghz:2", "--nu", "4"],
        {"command": "randmeas exact", "parameters": {"ensemble": "clifford", "nu": 4, "state": "ghz:2", "state2": "ghz:2", "subsystem": "full"}, "seed": 0},
    ),
    "randmeas scaling": (
        ["randmeas", "scaling", "--n-list", "2, 3", "--target", "0.5", "--repetitions", "1"],
        {"command": "randmeas scaling", "parameters": {"ensemble": "clifford", "n_list": [2, 3], "nm": 64, "repetitions": 1, "target": 0.5}, "seed": 0},
    ),
    "repo ingest": (
        ["repo", "ingest", "{file_1}", "--root", "{root}"],
        {"command": "repo ingest", "parameters": {"file": "FILE_1", "root": "ROOT"}, "seed": None},
    ),
    "repo list": (
        ["repo", "list", "--root", "{root}"],
        {"command": "repo list", "parameters": {"root": "ROOT"}, "seed": None},
    ),
    "repo compare": (
        ["repo", "compare", "{id_1}", "{id_2}", "--root", "{root}", "--subsystem", "0", "--subsystem", "full"],
        {"command": "repo compare", "parameters": {"id_1": "ID_1", "id_2": "ID_2", "root": "ROOT", "subsystems": ["0", "full"]}, "seed": None},
    ),
    "repo matrix": (
        ["repo", "matrix", "{id_1}", "{id_2}", "--root", "{root}"],
        {"command": "repo matrix", "parameters": {"ids": ["ID_1", "ID_2"], "root": "ROOT", "subsystem": "full"}, "seed": None},
    ),
    "verify run": (
        ["verify", "run", "--instance", "{instance}", "--rounds", "40", "--seed", "2"],
        {"command": "verify run", "parameters": {"instance": "INSTANCE", "prover": "honest", "rounds": 40, "state": None, "test_fraction": 0.5}, "seed": 2},
    ),
    "verify delegate": (
        ["verify", "delegate", "--state", "theta:0.3", "--basis", "z", "--rounds", "10"],
        {"command": "verify delegate", "parameters": {"basis": "z", "qubit": 0, "rounds": 10, "state": "theta:0.3", "test_fraction": 0.25}, "seed": 0},
    ),
    "reproduce": (
        ["reproduce", "fig1c", "--seed", "8"],
        {"command": "reproduce", "parameters": {"figure": "fig1c"}, "seed": 8},
    ),
}


@pytest.mark.parametrize("command", sorted(_CONFIG_RUNS))
def test_config_header_is_pinned(command, config_inputs, tmp_path, monkeypatch):
    import qverify.cli as cli

    # the header does not depend on what the figure computes
    monkeypatch.setitem(cli._FIGURES, "fig1c", lambda seed: (["c"], [[1]], {}, [], []))
    argv, expected = _CONFIG_RUNS[command]
    out = tmp_path / "out"
    assert dispatch([a.format(**config_inputs) for a in argv] + ["--out", str(out)]) == 0
    (report,) = [
        p for p in out.glob("*.json") if not p.name.endswith(".meta.json") and not p.name.startswith("dataset-")
    ]
    config = _read_json(report)["config"]
    text = canonical_json(config)
    assert report.with_suffix(".csv").read_text().splitlines()[0] == f"# config: {text}"
    assert _read_json(report.with_suffix(".meta.json"))["config"] == config
    text = text.replace(json.dumps(str(out))[1:-1], "OUT")
    for name, value in config_inputs.items():
        text = text.replace(json.dumps(value)[1:-1], name.upper())
    assert json.loads(text) == {**expected, "out": "OUT", "generator": "numpy-pcg64/seedsequence-spawn"}
