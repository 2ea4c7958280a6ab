"""End-to-end tests of the command-line surface via dispatch()."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qverify.cli import dispatch
from qverify.qsim import PauliTerm
from qverify.repostore import canonical_json, document_digest
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


def _output_digest(out: Path, stem: str) -> str:
    """SHA-256 over a run's data files, leaving out the ``config`` headers
    (they echo the ``--out`` path): the JSON body, the CSV rows and the
    JSON-lines records."""
    h = hashlib.sha256()
    body = _read_json(out / f"{stem}.json")
    body.pop("config")
    h.update(canonical_json(body).encode())
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
