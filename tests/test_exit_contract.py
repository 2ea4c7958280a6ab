"""The exit-code contract under malformed input documents.

Valid dataset, instance and ``--config`` documents are mutated (a field at
any depth dropped or replaced by a value of another JSON type) with the
digest recomputed, so the mutation reaches the type checks behind it.
Whatever the mutation, the CLI exits 0, 3 or 4, plus 2 (argparse's usage
error) for a ``--config`` file, and never 1.  A rejected input prints
exactly one JSON error object and writes no file.
"""

from __future__ import annotations

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qverify.cli import dispatch
from qverify.qsim import PauliTerm, ghz_state
from qverify.randmeas import collect, sample_settings
from qverify.repostore import canonical_json, dataset_to_document, document_digest
from qverify.verifyproto import HamiltonianInstance, serialize_instance

# one value of every JSON type, kept small so an accepted run stays cheap
_VALUES = [None, True, 0, -1, 2, 2.5, "", "x", "ghz:2", [], [1], ["x"], {}, {"k": 1}]


_DOCUMENTS = {
    "dataset": dataset_to_document(
        collect(ghz_state(2), sample_settings(2, 3, seed=1), 4, seed=2)
    ),
    "instance": json.loads(
        serialize_instance(
            HamiltonianInstance(2, (PauliTerm(-1.0, "ZZ"), PauliTerm(-0.5, "XI")), -2.0, -1.0)
        )
    ),
    "config": {
        "command": ["randmeas", "collect"],
        "arguments": [],
        "parameters": {"state": "ghz:2", "nu": 3, "nm": 4, "seed": 1},
    },
}

# the command each document is fed to, and the exit codes it may give
_RUNS = {
    "dataset": (["repo", "ingest", "{file}", "--root", "{root}"], {0, 3, 4}),
    "instance": (["verify", "run", "--instance", "{file}", "--rounds", "8"], {0, 3, 4}),
    "config": (["--config", "{file}"], {0, 2, 3, 4}),
}


def _paths(node, prefix=(), depth=3) -> list[tuple]:
    """Key paths to every dict entry and list item, ``depth`` levels deep."""
    if len(prefix) == depth:
        return []
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _paths(child, prefix + (key,), depth)
    return out


@st.composite
def _mutated(draw, kind: str) -> dict:
    doc = copy.deepcopy(_DOCUMENTS[kind])
    for _ in range(draw(st.integers(1, 2))):
        paths = _paths(doc)
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for p in parents:
            node = node[p]
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    if "digest" in doc:
        doc["digest"] = document_digest(doc)
    return doc


def _run(kind: str, text: str) -> tuple[int, str, list[str]]:
    """Feed one document to its command in a fresh directory, holding the
    repository root and ``--out``; returns the exit code, stderr and the
    files created."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        path = tmp / "input.json"
        path.write_text(text)
        argv = [a.format(file=path, root=tmp / "repo") for a in _RUNS[kind][0]]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = dispatch(argv + ["--out", str(tmp / "out")])
        created = [p.name for p in tmp.rglob("*") if p != path]
    return code, err.getvalue(), created


@pytest.mark.parametrize("kind", sorted(_DOCUMENTS))
def test_valid_document_runs(kind):
    code, err, created = _run(kind, canonical_json(_DOCUMENTS[kind]) + "\n")
    assert code == 0, err
    assert created


@pytest.mark.parametrize("kind", sorted(_DOCUMENTS))
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_document_never_exits_1(kind, data):
    doc = data.draw(_mutated(kind))
    code, err, created = _run(kind, canonical_json(doc) + "\n")
    assert code in _RUNS[kind][1], err
    if code in (3, 4):
        (line,) = err.splitlines()
        assert set(json.loads(line)) == {"error"}
        assert not created


@pytest.mark.parametrize(
    "kind,field,token",
    [
        ("dataset", "shots_per_setting", "NaN"),
        ("dataset", "num_qubits", "Infinity"),
        ("instance", "threshold_yes", "NaN"),
        ("instance", "threshold_no", "-Infinity"),
    ],
)
def test_non_finite_json_token_is_invalid_input(kind, field, token):
    # json.loads accepts these tokens; the canonical serializer behind the
    # digest check refuses them
    text = canonical_json(_DOCUMENTS[kind])
    value = json.dumps(_DOCUMENTS[kind][field])
    assert text.count(f'"{field}":{value}') == 1
    code, err, created = _run(kind, text.replace(f'"{field}":{value}', f'"{field}":{token}'))
    assert code == 3
    assert json.loads(err)["error"]["category"] == "invalid-input"
    assert not created
