"""Dataset file format and repository tests."""

from __future__ import annotations

import copy
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import (
    dataset_to_document,
    oracle_load_dataset_text,
    oracle_serialize_dataset,
    oracle_validate,
    recursive_canonical_json,
)
from qverify.cli import dispatch
from qverify.qsim import QuantumState, QubitBasis, ghz_state, zero_state
from qverify.randmeas import (
    CLIFFORD_TABLE,
    MeasurementSetting,
    RandMeasDataset,
    collect,
    haar_unitary,
    sample_settings,
)
from qverify.repostore import (
    DigestMismatchError,
    MalformedDatasetError,
    RepoFormatError,
    Repository,
    UnsupportedVersionError,
    canonical_json,
    document_digest,
    fnv1a64,
    read_dataset_text,
    render_dataset,
    serialize_dataset,
)
from qverify.repostore import repository
from qverify.repostore.format import _float_free


def reference_fnv1a64(data: bytes) -> int:
    # independent re-statement of the published algorithm constants
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


# strings that need escapes or are not ASCII, beside arbitrary text
_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\xe9\U0001f600\ud800')),
    max_size=6,
)
_PLAIN_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(2**70), 2**70), _TEXT)
_ODD_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.just(float("nan")),
)


def _trees(leaves, keys):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(keys, children, max_size=4),
        ),
        max_leaves=16,
    )


def _outcome(write, tree):
    try:
        return "text", write(tree)
    except Exception as exc:  # the error is part of the contract
        return type(exc), str(exc)


class TestCanonicalJson:
    def test_key_sorting_and_separators(self):
        assert canonical_json({"b": 1, "a": [True, None, "x\n"]}) == '{"a":[true,null,"x\\n"],"b":1}'

    @pytest.mark.parametrize(
        "value,text",
        [
            (0.1, "0.10000000000000001"),
            (1.0, "1.0"),
            (0.5, "0.5"),
            (-0.0, "-0.0"),
            (1e300, "1.0000000000000001e+300"),
            (3, "3"),
        ],
    )
    def test_number_formatting(self, value, text):
        assert canonical_json(value) == text

    def test_seventeen_digits_roundtrip_doubles(self):
        rng = np.random.default_rng(0)
        for v in rng.standard_normal(200):
            assert float(json.loads(canonical_json(float(v)))) == float(v)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(tree=_trees(_PLAIN_LEAVES, _TEXT))
    def test_encoder_path_matches_the_recursive_writer(self, tree):
        assert _float_free(tree)
        assert canonical_json(tree) == recursive_canonical_json(tree)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(tree=_trees(st.one_of(_PLAIN_LEAVES, _ODD_LEAVES), st.one_of(_TEXT, st.integers(-3, 3))))
    def test_any_tree_gives_the_recursive_writers_text_or_error(self, tree):
        assert _outcome(canonical_json, tree) == _outcome(recursive_canonical_json, tree)

    def test_roundtrip_identity_on_canonical_form(self):
        doc = {"z": [1, 2.5, "s"], "a": {"k": [[0.1, -3]]}}
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text


class TestFnv1a64:
    @pytest.mark.parametrize(
        "data,want",
        [
            (b"", 0xCBF29CE484222325),
            (b"a", 0xAF63DC4C8601EC8C),
            (b"foobar", 0x85944171F73967E8),
        ],
    )
    def test_published_vectors(self, data, want):
        assert fnv1a64(data) == want

    def test_matches_reference_loop(self):
        # every length 0-64: each remainder after the four-byte steps, many times
        rng = np.random.default_rng(1)
        for length in range(65):
            for data in (rng.integers(0, 256, size=length).astype(np.uint8).tobytes(), b"\xff" * length):
                assert fnv1a64(data) == reference_fnv1a64(data)


def tiny_dataset() -> RandMeasDataset:
    return RandMeasDataset(
        device_id="devA",
        state_label="zero",
        num_qubits=1,
        settings=[MeasurementSetting(0, clifford_indices=(5,))],
        counts=[np.array([[0, 1], [1, 1]], dtype=np.int64)],
        shots_per_setting=2,
        provenance={"seed": 7},
    )


MISTYPED_FIELDS = [
    ("device_id", 7),
    ("state_label", None),
    ("num_qubits", True),
    ("num_qubits", 1.0),
    ("num_qubits", 64),
    ("shots_per_setting", True),
    ("shots_per_setting", 2.0),
    ("provenance", [["seed", 7]]),
    ("settings", {"0": [5]}),
    ("counts", "01"),
    ("format_version", True),
]

MISTYPED_COUNTS_OR_SETTINGS = [
    ([[["0", True], ["1", 1]]], [[5]]),
    ([[["0", 1.0], ["1", 1]]], [[5]]),
    ([[[0, 1], ["1", 1]]], [[5]]),
    ([[["0", 1, 0]]], [[5]]),
    ([["01"]], [[5]]),
    ([{"0": 2}], [[5]]),
    ([[["0", 1], ["1", 1]]], [5]),
    ([[["0", 1], ["1", 1]]], [[5.0]]),
    ([[["0", 1], ["1", 1]]], [["5"]]),
]


GOLDEN_BODY = (
    '{"counts":[[["0",1],["1",1]]],"device_id":"devA","ensemble":"clifford",'
    '"format_version":1,"num_qubits":1,"provenance":{"seed":7},"settings":[[5]],'
    '"shots_per_setting":2,"state_label":"zero"}'
)


class TestSerialization:
    def test_golden_canonical_text(self):
        digest = format(reference_fnv1a64(GOLDEN_BODY.encode("utf-8")), "016x")
        want = GOLDEN_BODY.replace(
            '"device_id":"devA"', f'"device_id":"devA","digest":"{digest}"'
        )
        assert serialize_dataset(tiny_dataset()) == want + "\n"

    def test_roundtrip_clifford(self):
        ds = collect(ghz_state(2), sample_settings(2, 6, seed=1), 32, seed=2)
        text = serialize_dataset(ds)
        back = read_dataset_text(text)[0]
        assert serialize_dataset(back) == text
        assert len(back.counts) == len(ds.counts)
        assert all(np.array_equal(a, b) for a, b in zip(back.counts, ds.counts))
        assert all(
            a.clifford_indices == b.clifford_indices
            for a, b in zip(back.settings, ds.settings)
        )

    def test_roundtrip_haar(self):
        ds = collect(
            ghz_state(2), sample_settings(2, 4, seed=3, ensemble="haar"), 16, seed=4
        )
        text = serialize_dataset(ds)
        back = read_dataset_text(text)[0]
        assert serialize_dataset(back) == text
        for a, b in zip(back.settings, ds.settings):
            for ma, mb in zip(a.matrices, b.matrices):
                assert np.array_equal(ma, mb)

    def test_corrupt_digest_rejected(self):
        doc = dataset_to_document(tiny_dataset())
        doc["digest"] = ("0" if doc["digest"][0] != "0" else "1") + doc["digest"][1:]
        with pytest.raises(DigestMismatchError):
            read_dataset_text(canonical_json(doc))

    def test_corrupt_count_sum_names_setting(self):
        doc = dataset_to_document(tiny_dataset())
        doc["counts"][0][0][1] = 99
        with pytest.raises(MalformedDatasetError, match="setting 0"):
            read_dataset_text(canonical_json(doc))

    def test_counts_parsed_to_sorted_index_rows(self):
        # a document may list outcomes in any order; the dataset holds them
        # ascending, qubit 0 as the high bit
        ds = collect(ghz_state(2), sample_settings(2, 3, seed=1), 32, seed=2)
        doc = dataset_to_document(ds)
        doc["counts"] = [list(reversed(block)) for block in doc["counts"]]
        doc["digest"] = document_digest(doc)
        back = read_dataset_text(canonical_json(doc))[0]
        for block, rows in zip(doc["counts"], back.counts):
            assert rows.dtype == np.int64
            assert rows.tolist() == sorted([int(bits, 2), cnt] for bits, cnt in block)
        assert serialize_dataset(back) == serialize_dataset(ds)

    @pytest.mark.parametrize("field,value", MISTYPED_FIELDS)
    def test_mistyped_field_rejected(self, field, value):
        doc = dataset_to_document(tiny_dataset())
        doc[field] = value
        doc["digest"] = document_digest(doc)
        with pytest.raises(RepoFormatError):
            read_dataset_text(canonical_json(doc))

    @pytest.mark.parametrize("counts,settings", MISTYPED_COUNTS_OR_SETTINGS)
    def test_mistyped_counts_or_settings_rejected(self, counts, settings):
        doc = dataset_to_document(tiny_dataset())
        doc["counts"], doc["settings"] = counts, settings
        doc["digest"] = document_digest(doc)
        with pytest.raises(MalformedDatasetError):
            read_dataset_text(canonical_json(doc))

    def test_unsupported_version(self):
        doc = dataset_to_document(tiny_dataset())
        doc["format_version"] = 99
        with pytest.raises(UnsupportedVersionError):
            read_dataset_text(canonical_json(doc))

    def test_serialization_deterministic(self):
        a = collect(ghz_state(2), sample_settings(2, 5, seed=9), 16, seed=10)
        b = collect(ghz_state(2), sample_settings(2, 5, seed=9), 16, seed=10)
        assert serialize_dataset(a) == serialize_dataset(b)


def two_setting_document() -> dict:
    ds = RandMeasDataset(
        device_id="devA",
        state_label="zero",
        num_qubits=1,
        settings=[
            MeasurementSetting(0, clifford_indices=(5,)),
            MeasurementSetting(1, clifford_indices=(3,)),
        ],
        counts=[np.array([[0, 1], [1, 1]], dtype=np.int64)] * 2,
        shots_per_setting=2,
    )
    return dataset_to_document(ds)


def _duplicate(doc):
    doc["counts"][1] = [["0", 1], ["0", 1]]


def _negative(doc):
    doc["counts"][1] = [["0", 3], ["1", -1]]


def _wrong_sum(doc):
    doc["counts"][1] = [["0", 1], ["1", 2]]


def _missing_block(doc):
    del doc["counts"][1]


def _wrong_width(doc):
    doc["settings"][1] = [3, 3]


# each counts invariant is checked once, by RandMeasDataset.validate, and the
# reader reports it as a format error naming the setting
INVARIANT_CASES = [
    pytest.param(_duplicate, "setting 1: outcomes must ascend strictly", id="duplicate-bitstring"),
    pytest.param(_negative, "setting 1: negative count", id="negative-count"),
    pytest.param(_wrong_sum, "setting 1: counts sum 3 != shots_per_setting 2", id="wrong-sum"),
    pytest.param(_missing_block, "setting 1: 2 settings but 1 counts arrays", id="missing-block"),
    pytest.param(_wrong_width, "setting 1: width 2 != 1 qubits", id="wrong-width"),
]


class TestDatasetInvariants:
    @pytest.mark.parametrize("corrupt,message", INVARIANT_CASES)
    def test_reader_rejects_and_names_the_setting(self, corrupt, message):
        doc = two_setting_document()
        corrupt(doc)
        doc["digest"] = document_digest(doc)
        with pytest.raises(MalformedDatasetError, match=message):
            read_dataset_text(canonical_json(doc))

    @pytest.mark.parametrize("corrupt,message", INVARIANT_CASES)
    def test_ingest_refuses_and_writes_nothing(self, corrupt, message, tmp_path, capsys):
        root = tmp_path / "repo"
        Repository(root).ingest(write_dataset(tmp_path, tiny_dataset()))
        doc = two_setting_document()
        corrupt(doc)
        doc["digest"] = document_digest(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(canonical_json(doc) + "\n")
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        capsys.readouterr()
        argv = ["repo", "ingest", str(bad), "--root", str(root), "--out", str(tmp_path / "o")]
        assert dispatch(argv) == 3
        assert message in json.loads(capsys.readouterr().err)["error"]["message"]
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "o").exists()

    def test_clean_document_reads(self):
        ds, doc, _ = read_dataset_text(canonical_json(two_setting_document()))
        assert ds.n_settings == 2 and doc["digest"] == document_digest(doc)


# ---------------------------------------------------------------------------
# The one-render writer, the columnar reader and the columnar validate against
# their entry-by-entry oracles: the same bytes, arrays and documents, and on
# every refusal the same exception and message.


def _refusal(call, arg):
    """None when ``call(arg)`` returns, else the exception's class and message."""
    try:
        call(arg)
    except Exception as exc:  # the error is part of the contract
        return type(exc), str(exc)
    return None


def _sealed(doc: dict) -> str:
    doc["digest"] = document_digest(doc)
    return canonical_json(doc)


@cache
def _oracle_dataset(name: str) -> RandMeasDataset:
    if name == "clifford-ghz3":
        return collect(ghz_state(3), sample_settings(3, 40, seed=7), 64, seed=1)
    if name == "clifford-zero1":
        return collect(zero_state(1), sample_settings(1, 4, seed=2), 8, seed=3)
    if name == "haar-ghz2":
        return collect(ghz_state(2), sample_settings(2, 6, seed=3, ensemble="haar"), 16, seed=4)
    ds = collect(ghz_state(2), sample_settings(2, 5, seed=5), 32, seed=6, device_id='d"\u00e9v')
    ds.provenance = {"note": "caf\u00e9\n", "x": 0.1, "nested": [1, 2.5, None, True, {"k": -0.0}]}
    return ds


ORACLE_DATASETS = ["clifford-ghz3", "clifford-zero1", "haar-ghz2", "float-provenance"]


def _assert_same_dataset(ds, want):
    assert [type(v) for v in vars(ds).values()] == [type(v) for v in vars(want).values()]
    assert (ds.device_id, ds.state_label, ds.num_qubits) == (want.device_id, want.state_label, want.num_qubits)
    assert (ds.shots_per_setting, ds.provenance) == (want.shots_per_setting, want.provenance)
    assert len(ds.counts) == len(want.counts)
    for a, b in zip(ds.counts, want.counts):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    for a, b in zip(ds.settings, want.settings, strict=True):
        assert a.setting_id == b.setting_id and a.clifford_indices == b.clifford_indices
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices or (), b.matrices or (), strict=True))


def four_setting_document() -> dict:
    ds = RandMeasDataset(
        device_id="devA",
        state_label="zero",
        num_qubits=1,
        settings=[MeasurementSetting(u, clifford_indices=(u,)) for u in range(4)],
        counts=[np.array([[0, 1], [1, 1]], dtype=np.int64)] * 4,
        shots_per_setting=2,
    )
    return dataset_to_document(ds)


def _bitstring_in_3_sum_in_1(doc):
    doc["counts"][3][0][0] = "2"
    doc["counts"][1][0][1] = 5


def _bitstrings_in_1_and_3(doc):
    doc["counts"][1][1][0] = "01"
    doc["counts"][3][0][0] = "x"


def _two_entries_in_2(doc):
    doc["counts"][2] = [["0", 1], ["1"], ["11", 1]]


def _entry_in_1_block_in_2(doc):
    doc["counts"][1][0][1] = 2.0
    doc["counts"][2] = "01"


def _negative_in_1_sum_in_2(doc):
    doc["counts"][1] = [["0", 3], ["1", -1]]
    doc["counts"][2][0][1] = 5


def _duplicate_in_2_sum_in_1(doc):
    doc["counts"][2] = [["1", 1], ["1", 1]]
    doc["counts"][1][1][1] = 2


def _negative_and_sum_in_1(doc):
    doc["counts"][1] = [["1", -1], ["0", 5]]


def _sum_in_1(doc):
    doc["counts"][1][0][1] = 5


# documents with two faults: the reader's step order decides first, then the
# setting, then the entry; a False ``reseal`` leaves the digest stale too
TWO_FAULT_CASES = [
    pytest.param(_bitstring_in_3_sum_in_1, True, "setting 3: malformed bitstring '2'", id="step-2-before-step-3"),
    pytest.param(_bitstrings_in_1_and_3, True, "setting 1: malformed bitstring '01'", id="first-of-two-step-2"),
    pytest.param(_two_entries_in_2, True, "setting 2: counts entry ['1']", id="first-entry-of-a-block"),
    pytest.param(_entry_in_1_block_in_2, True, "setting 1: bad count 2.0", id="entry-before-later-block"),
    pytest.param(_negative_in_1_sum_in_2, True, "setting 1: negative count", id="first-of-two-step-3"),
    pytest.param(
        _duplicate_in_2_sum_in_1,
        True,
        "setting 1: counts sum 3 != shots_per_setting 2",
        id="step-3-earlier-setting-first",
    ),
    pytest.param(_negative_and_sum_in_1, True, "setting 1: negative count", id="step-3-check-order"),
    pytest.param(
        _sum_in_1, False, "setting 1: counts sum 6 != shots_per_setting 2", id="step-3-before-digest"
    ),
]


@cache
def _refusal_texts() -> dict[str, str]:
    """Every dataset text that a refusal test in this file or in the CLI's
    tests feeds to the reader."""
    tiny = dataset_to_document(tiny_dataset())
    texts = {f"field-{f}-{v!r}": _sealed({**tiny, f: v}) for f, v in MISTYPED_FIELDS}
    for i, (counts, settings) in enumerate(MISTYPED_COUNTS_OR_SETTINGS):
        texts[f"counts-or-settings-{i}"] = _sealed({**tiny, "counts": counts, "settings": settings})
    texts["corrupt-digest"] = canonical_json({**tiny, "digest": "0" * 16})
    texts["version-99"] = canonical_json({**tiny, "format_version": 99})
    for case in INVARIANT_CASES:
        doc = two_setting_document()
        case.values[0](doc)
        texts[f"invariant-{case.id}"] = _sealed(doc)
    for case in TWO_FAULT_CASES:
        corrupt, reseal, _ = case.values
        doc = four_setting_document()
        corrupt(doc)
        texts[f"two-faults-{case.id}"] = _sealed(doc) if reseal else canonical_json(doc)
    # a repeated outcome is the one tie a count could break; the reader sorts
    # each setting by outcome alone, and either order is refused with one message
    repeated = two_setting_document()
    repeated["counts"][1] = [["1", 2], ["1", 0]]
    texts["repeated-outcome-counts-descending"] = _sealed(repeated)
    collected = dataset_to_document(collect(zero_state(1), sample_settings(1, 4, seed=1), 8, seed=2))
    for field, value in (("device_id", 7), ("provenance", [1, 2]), ("num_qubits", True)):
        texts[f"cli-{field}"] = _sealed({**collected, field: value})
    texts["no-settings"] = _sealed({**collected, "settings": [], "counts": []})
    no_shots = {**collected, "counts": [[] for _ in collected["settings"]], "shots_per_setting": 0}
    texts["no-shots"] = _sealed(no_shots)
    text = canonical_json(collected)
    texts["nan-shots"] = text.replace('"shots_per_setting":8', '"shots_per_setting":NaN')
    texts["infinite-qubits"] = text.replace('"num_qubits":1', '"num_qubits":Infinity')
    texts["top-level-list"] = "[]"
    texts["not-json"] = text[:-1]
    return texts


# one value of each kind a counts entry, a setting or a field may hold
_MUTANTS = [
    None, True, 0, 1, 2, -1, 2**62, 2**63, -(2**63), 1.0, "", "0", "1", "01", "10", "2", "\u00e9",
    [], ["0"], ["1", 1], ["01", 1], ["10", 2**63 - 1], [5, 1], {}, {"0": 1},
]


def _paths(node, prefix=()) -> list[tuple]:
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return [p for key, child in items for p in [prefix + (key,), *_paths(child, prefix + (key,))]]


@st.composite
def _mutated_document(draw) -> str:
    base = dataset_to_document(collect(ghz_state(2), sample_settings(2, 3, seed=8), 4, seed=9))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from([p for p in _paths(doc) if p[0] != "digest"]))
        node = doc
        for part in parents:
            node = node[part]
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(_MUTANTS)))
    return _sealed(doc) if draw(st.booleans()) else canonical_json(doc)


class TestWriterAgainstOracle:
    @pytest.mark.parametrize("name", ORACLE_DATASETS)
    def test_same_bytes_and_digest(self, name):
        ds = _oracle_dataset(name)
        text, digest = render_dataset(ds)
        assert text == serialize_dataset(ds) == oracle_serialize_dataset(ds)
        assert digest == dataset_to_document(ds)["digest"]

    def test_numpy_scalars_give_the_recursive_writers_bytes_or_error(self):
        def dataset(provenance):
            return RandMeasDataset(
                device_id="devA",
                state_label="s",
                num_qubits=2,
                settings=[MeasurementSetting(0, clifford_indices=(np.int64(5), np.int64(23)))],
                counts=[np.array([[0, 1], [3, 1]], dtype=np.int64)],
                shots_per_setting=2,
                provenance=provenance,
            )

        written = dataset({"seed": np.int64(7), "x": np.float64(0.1)})
        assert serialize_dataset(written) == oracle_serialize_dataset(written)
        assert '"settings":[[5,23]]' in serialize_dataset(written)
        assert '"provenance":{"seed":7,"x":0.10000000000000001}' in serialize_dataset(written)
        refused = dataset({"seed": np.int64(7), "x": np.float64(0.1), "y": float("nan")})
        got = _refusal(serialize_dataset, refused)
        assert got == _refusal(oracle_serialize_dataset, refused)
        assert got == (MalformedDatasetError, "non-finite float nan not representable")


class TestReaderAgainstOracle:
    @pytest.mark.parametrize("name", ORACLE_DATASETS)
    @pytest.mark.parametrize("order", ["written", "reversed"])
    def test_same_arrays_and_document(self, name, order):
        doc = dataset_to_document(_oracle_dataset(name))
        if order == "reversed":  # outcomes in no order: the reader sorts them
            doc["counts"] = [block[::-1] for block in doc["counts"]]
        text = _sealed(doc)
        ds, got, _ = read_dataset_text(text)
        want_ds, want = oracle_load_dataset_text(text)
        assert got == want
        _assert_same_dataset(ds, want_ds)
        _assert_same_dataset(ds, _oracle_dataset(name))

    @pytest.mark.parametrize("name", sorted(_refusal_texts()))
    def test_same_refusal(self, name):
        text = _refusal_texts()[name]
        got = _refusal(read_dataset_text, text)
        assert got is not None
        assert got == _refusal(oracle_load_dataset_text, text)

    @pytest.mark.parametrize("corrupt,reseal,message", TWO_FAULT_CASES)
    def test_two_faults_report_the_first(self, corrupt, reseal, message):
        doc = four_setting_document()
        corrupt(doc)
        text = _sealed(doc) if reseal else canonical_json(doc)
        assert _refusal(read_dataset_text, text) == (MalformedDatasetError, message)

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(text=_mutated_document())
    def test_mutated_document_reads_or_refuses_as_the_oracle(self, text):
        got, want = _refusal(read_dataset_text, text), _refusal(oracle_load_dataset_text, text)
        assert got == want
        if got is None:
            (ds, doc, _), (want_ds, want_doc) = read_dataset_text(text), oracle_load_dataset_text(text)
            assert doc == want_doc
            _assert_same_dataset(ds, want_ds)


_BLOCK_FAULTS = {
    "negative": lambda rows: rows[-1].__setitem__(1, -1),
    "sum": lambda rows: rows[0].__setitem__(1, rows[0][1] + 1),
    "huge": lambda rows: rows[0].__setitem__(1, 2**63 - 1),
    "below": lambda rows: rows[0].__setitem__(0, -1),
    "above": lambda rows: rows[-1].__setitem__(0, 2**63 - 1),
    "duplicate": lambda rows: rows.append(list(rows[-1])),
    "reversed": lambda rows: rows.reverse(),
}


@st.composite
def _counts_dataset(draw) -> RandMeasDataset:
    """Small datasets, each counts block valid or broken in one of many ways."""
    n, k, shots = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, 6]))
    counts = []
    for _ in range(k):
        outcomes = sorted(draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=3)))
        rows = [[o, shots // len(outcomes)] for o in outcomes]
        rows[0][1] += shots % len(outcomes)
        fault = draw(st.sampled_from([None] * 6 + [*_BLOCK_FAULTS, "int32", "narrow"]))
        if fault in _BLOCK_FAULTS:
            _BLOCK_FAULTS[fault](rows)
        block = np.array(rows, dtype=np.int32 if fault == "int32" else np.int64)
        counts.append(block[:, :1] if fault == "narrow" else block)
    settings_ = [MeasurementSetting(u, clifford_indices=(0,) * n) for u in range(k)]
    return RandMeasDataset("d", "s", n, settings_, counts, shots)


class TestValidateAgainstOracle:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(ds=_counts_dataset())
    def test_same_refusal(self, ds):
        assert _refusal(RandMeasDataset.validate, ds) == _refusal(oracle_validate, ds)

    def test_int64_wrap_reports_the_exact_sum(self):
        ds = RandMeasDataset(
            "d", "s", 2, [MeasurementSetting(0, clifford_indices=(0, 0))],
            [np.array([[u, 2**62] for u in range(4)], dtype=np.int64)], 2**64,
        )
        ds.validate()
        ds.shots_per_setting = 1
        message = "setting 0: counts sum 18446744073709551616 != shots_per_setting 1"
        assert _refusal(RandMeasDataset.validate, ds) == (ValueError, message)

    def test_malformed_block_after_an_earlier_fault(self):
        ds = RandMeasDataset(
            "d", "s", 1, [MeasurementSetting(u, clifford_indices=(0,)) for u in range(3)],
            [np.array([[0, 2]]), np.array([[0, 5]]), np.array([[0, 2]], dtype=np.int32)], 2,
        )
        assert _refusal(RandMeasDataset.validate, ds) == (ValueError, "setting 1: counts sum 5 != shots_per_setting 2")
        ds.counts[1] = np.array([[0, 2]])
        assert _refusal(RandMeasDataset.validate, ds) == (ValueError, "setting 2: counts must be an int64 (K, 2) array")


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False), _TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=3), st.dictionaries(_TEXT, children, max_size=3)),
    max_leaves=8,
)
_INDEX_TYPES = [int, np.int64, np.int32, np.int16, np.uint8, np.uint64]


@st.composite
def _valid_dataset(draw) -> RandMeasDataset:
    """A dataset ``validate`` accepts, in either ensemble: positional setting
    ids (the file keeps no other), JSON provenance, zero counts allowed."""
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 63)))
    k, shots = draw(st.integers(1, 4)), draw(st.one_of(st.integers(1, 8), st.integers(1, 2**62)))
    index_type = draw(st.sampled_from(_INDEX_TYPES))
    settings_, counts = [], []
    for _ in range(k):
        outcomes = sorted(draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=4)))
        cuts = sorted(draw(st.lists(st.integers(0, shots), min_size=len(outcomes) - 1, max_size=len(outcomes) - 1)))
        counts.append(np.array(list(zip(outcomes, np.diff([0, *cuts, shots]).tolist())), dtype=np.int64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))  # one seed for the n choices per setting
    clifford = draw(st.booleans())
    for u in range(k):
        indices = rng.integers(-24, 24, size=n).tolist()
        if clifford:
            settings_.append(MeasurementSetting(u, clifford_indices=tuple(index_type(i % 24) for i in indices)))
        else:  # Haar draws, and Clifford matrices with their exact zeros
            mats = tuple(haar_unitary(rng) if i < 0 else CLIFFORD_TABLE[i] for i in indices)
            settings_.append(MeasurementSetting(u, matrices=mats))
    provenance = draw(st.dictionaries(_TEXT, _JSON_VALUES, max_size=3))
    ds = RandMeasDataset(draw(_TEXT), draw(_TEXT), n, settings_, counts, shots, provenance)
    ds.validate()
    return ds


class TestRoundTrip:
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(ds=_valid_dataset())
    def test_the_reader_gives_back_what_the_writer_wrote(self, ds):
        text = serialize_dataset(ds)
        back, doc, canonical = read_dataset_text(text)
        assert canonical == text and doc["digest"] == render_dataset(ds)[1]
        _assert_same_dataset(back, ds)
        # equal values of equal JSON types: -0.0 stays a float, 1 an int
        assert canonical_json(back.provenance) == canonical_json(ds.provenance)
        assert all(type(i) is int for s in back.settings for i in s.clifford_indices or ())


@pytest.fixture()
def repo(tmp_path):
    return Repository(tmp_path / "repo")


def write_dataset(tmp_path, ds, name="ds.json"):
    path = tmp_path / name
    path.write_text(serialize_dataset(ds), encoding="utf-8")
    return path


class TestRepository:
    def test_ingest_and_list(self, repo, tmp_path):
        ds_id = repo.ingest(write_dataset(tmp_path, tiny_dataset()))
        listed = repo.list_datasets()
        assert [d["id"] for d in listed] == [ds_id]
        assert listed[0]["device_id"] == "devA"

    def test_reingest_idempotent(self, repo, tmp_path):
        path = write_dataset(tmp_path, tiny_dataset())
        id1 = repo.ingest(path)
        id2 = repo.ingest(path)
        assert id1 == id2
        assert len(repo.list_datasets()) == 1
        lines = [json.loads(l) for l in repo.log_path.read_text().splitlines()]
        assert [l["duplicate"] for l in lines if l["op"] == "ingest"] == [False, True]

    def test_load_revalidates(self, repo, tmp_path):
        ds_id = repo.ingest(write_dataset(tmp_path, tiny_dataset()))
        stored = repo.datasets_dir / f"{ds_id}.json"
        stored.write_text(stored.read_text().replace('"zero"', '"one!"'), encoding="utf-8")
        with pytest.raises(DigestMismatchError):
            repo.load(ds_id)

    def test_compare_self_is_exactly_one(self, repo, tmp_path):
        ds = collect(ghz_state(2), sample_settings(2, 10, seed=20), 32, seed=21)
        ds_id = repo.ingest(write_dataset(tmp_path, ds))
        report = repo.compare(ds_id, ds_id)
        est = report["estimates"][0]
        assert est["fmax"] == 1.0
        assert est["se_fmax"] == 0.0

    def test_compare_independent_collections(self, repo, tmp_path):
        settings = sample_settings(2, 120, seed=22)
        d1 = collect(ghz_state(2), settings, 128, seed=23, device_id="a")
        d2 = collect(ghz_state(2), settings, 128, seed=24, device_id="b")
        i1 = repo.ingest(write_dataset(tmp_path, d1, "a.json"))
        i2 = repo.ingest(write_dataset(tmp_path, d2, "b.json"))
        est = repo.compare(i1, i2)["estimates"][0]
        assert abs(est["fmax"] - 1.0) < 5 * est["se_fmax"]

    def test_compare_is_symmetric(self, repo, tmp_path):
        settings = sample_settings(1, 30, seed=25)
        d1 = collect(zero_state(1), settings, 16, seed=26, device_id="a")
        d2 = collect(zero_state(1), settings, 16, seed=27, device_id="b")
        i1 = repo.ingest(write_dataset(tmp_path, d1, "a.json"))
        i2 = repo.ingest(write_dataset(tmp_path, d2, "b.json"))
        fwd = repo.compare(i1, i2)["estimates"][0]["fmax"]
        rev = repo.compare(i2, i1)["estimates"][0]["fmax"]
        assert fwd == rev

    def test_ensemble_mismatch_rejected(self, repo, tmp_path):
        d1 = collect(zero_state(1), sample_settings(1, 4, seed=1), 8, seed=2)
        d2 = collect(zero_state(1), sample_settings(1, 4, seed=1, ensemble="haar"), 8, seed=2)
        i1 = repo.ingest(write_dataset(tmp_path, d1, "a.json"))
        i2 = repo.ingest(write_dataset(tmp_path, d2, "b.json"))
        with pytest.raises(MalformedDatasetError, match="ensemble"):
            repo.compare(i1, i2)

    def test_matrix_ensemble_mismatch_carries_the_compare_message(self, repo, tmp_path):
        d1 = collect(zero_state(1), sample_settings(1, 4, seed=1), 8, seed=2)
        d2 = collect(zero_state(1), sample_settings(1, 4, seed=1, ensemble="haar"), 8, seed=2)
        i1 = repo.ingest(write_dataset(tmp_path, d1, "a.json"))
        i2 = repo.ingest(write_dataset(tmp_path, d2, "b.json"))
        with pytest.raises(MalformedDatasetError) as raised:
            repo.compare(i1, i2)
        report = repo.compare_matrix([i1, i2])
        assert report["matrix"][0][1] is None and report["matrix"][1][0] is None
        assert report["errors"] == {f"{i1},{i2}": str(raised.value)}
        assert str(raised.value) == "ensemble mismatch: clifford vs haar"

    @pytest.mark.parametrize("index", ["[]", '{"datasets": {"x": 5}}', '{"datasets": []}', "{}"])
    def test_malformed_index_is_invalid_input(self, index, tmp_path, capsys):
        root = tmp_path / "repo"
        root.mkdir()
        (root / "index.json").write_text(index)
        out = tmp_path / "o"
        assert dispatch(["repo", "list", "--root", str(root), "--out", str(out)]) == 3
        ds_path = write_dataset(tmp_path, tiny_dataset())
        assert dispatch(["repo", "ingest", str(ds_path), "--root", str(root), "--out", str(out)]) == 3
        assert not (root / "datasets").exists()
        assert not out.exists()

    def test_matrix_single_id(self, repo, tmp_path):
        ds_id = repo.ingest(write_dataset(tmp_path, tiny_dataset()))
        report = repo.compare_matrix([ds_id])
        assert report["matrix"] == [[1.0]]

    def test_matrix_block_structure(self, repo, tmp_path):
        settings = sample_settings(2, 150, seed=30)
        ghz = ghz_state(2)
        anti = QuantumState(
            np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2), QubitBasis(2)
        )
        ids = []
        for name, state, seed in (("a", ghz, 31), ("b", ghz, 32), ("c", anti, 33)):
            ds = collect(state, settings, 128, seed=seed, device_id=name)
            ids.append(repo.ingest(write_dataset(tmp_path, ds, f"{name}.json")))
        report = repo.compare_matrix(ids)
        m = report["matrix"]
        assert all(m[i][i] == 1.0 for i in range(3))
        assert m[0][1] == m[1][0] and m[0][2] == m[2][0]
        assert abs(m[0][1] - 1.0) < 0.1
        se = repo.compare(ids[0], ids[2])["estimates"][0]["se_fmax"]
        assert abs(m[0][2]) < 5 * se
        assert report["errors"] == {}

    def test_matrix_loads_each_id_once(self, repo, tmp_path, monkeypatch):
        settings = sample_settings(1, 6, seed=34)
        ids = []
        for seed in (35, 36, 37):
            ds = collect(zero_state(1), settings, 8, seed=seed)
            ids.append(repo.ingest(write_dataset(tmp_path, ds, f"{seed}.json")))
        calls = []
        real_load = Repository.load

        def spy(self, ds_id):
            calls.append(ds_id)
            return real_load(self, ds_id)

        monkeypatch.setattr(Repository, "load", spy)
        unknown = "0" * 16
        report = repo.compare_matrix(ids + [unknown, ids[0]])
        assert sorted(calls) == sorted(ids + [unknown])
        assert report["matrix"][0][4] == report["matrix"][4][4] == 1.0
        # every pair holding the unknown id records its load error, once
        message = str(KeyError(f"unknown dataset id {unknown!r}"))
        want = {f"{a},{unknown}": message for a in ids} | {f"{unknown},{unknown}": message}
        want[f"{unknown},{ids[0]}"] = message
        assert report["errors"] == want

    def test_matrix_both_ids_failing_reports_the_first(self, repo):
        first, second = "0" * 16, "1" * 16
        report = repo.compare_matrix([first, second])
        message = str(KeyError(f"unknown dataset id {first!r}"))
        assert report["errors"][f"{first},{second}"] == message

    def test_unknown_id(self, repo):
        with pytest.raises(KeyError):
            repo.load("0" * 16)

    @pytest.mark.parametrize("ensemble", ["clifford", "haar"])
    def test_ingest_stores_the_canonical_text(self, repo, tmp_path, ensemble):
        ds = collect(ghz_state(2), sample_settings(2, 5, seed=40, ensemble=ensemble), 16, seed=41)
        doc = json.loads(serialize_dataset(ds))
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps(dict(reversed(doc.items())), indent=2), encoding="utf-8")
        ds_id = repo.ingest(path)
        assert ds_id == doc["digest"]
        assert (repo.datasets_dir / f"{ds_id}.json").read_text(encoding="utf-8") == serialize_dataset(ds)

    def test_no_temp_leftovers(self, repo, tmp_path):
        repo.ingest(write_dataset(tmp_path, tiny_dataset()))
        assert not list(repo.root.rglob("*.tmp"))


def _full_load(repo, ds_id):
    """A load as a full read of the stored text, with nothing kept."""
    ds, doc, _ = read_dataset_text((repo.datasets_dir / f"{ds_id}.json").read_text(encoding="utf-8"))
    if doc["digest"] != ds_id:
        raise MalformedDatasetError(f"stored file digest {doc['digest']!r} does not match id {ds_id!r}")
    return ds


def _nested_dataset(seed) -> RandMeasDataset:
    ds = collect(zero_state(1), sample_settings(1, 4, seed=50), 8, seed=seed, device_id=f"d{seed}")
    ds.provenance["nested"] = [1, {"k": [2.5]}]
    return ds


# ways to overwrite a stored file after its ingest: each is accepted or
# refused as a full read of the new text accepts or refuses it
TAMPERS = {
    "one-byte": (lambda text, other: text.replace('"d51"', '"d52"'), DigestMismatchError),
    "other-dataset": (lambda text, other: other, MalformedDatasetError),
    "crlf": (lambda text, other: text.replace("\n", "\r\n"), None),
    # offsets after the break count translated newlines, as read_text gives them
    "crlf-broken": (lambda text, other: text.replace('"d51"', '\r\n\r"d51').replace("\n", "\r\n"), MalformedDatasetError),
}


class TestVerifiedReads:
    @pytest.fixture()
    def reads(self, monkeypatch):
        """Every text the repository hands to the full reader."""
        texts = []

        def spy(text):
            texts.append(text)
            return read_dataset_text(text)

        monkeypatch.setattr(repository, "read_dataset_text", spy)
        return texts

    def test_a_load_of_verified_bytes_skips_the_reader(self, repo, tmp_path, reads):
        ds_id = repo.ingest(write_dataset(tmp_path, _nested_dataset(51)))
        del reads[:]
        loaded = [repo.load(ds_id) for _ in range(3)]
        assert reads == []
        for ds in loaded:
            _assert_same_dataset(ds, _full_load(repo, ds_id))
        assert 0 < repo.nbytes <= repository.VERIFIED_BYTES

    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_a_changed_file_is_read_as_a_full_load_reads_it(self, name, repo, tmp_path):
        tamper, refusal = TAMPERS[name]
        i1 = repo.ingest(write_dataset(tmp_path, _nested_dataset(51), "a.json"))
        i2 = repo.ingest(write_dataset(tmp_path, _nested_dataset(52), "b.json"))
        repo.load(i1)
        stored = repo.datasets_dir / f"{i1}.json"
        other = (repo.datasets_dir / f"{i2}.json").read_bytes().decode("utf-8")
        stored.write_bytes(tamper(stored.read_bytes().decode("utf-8"), other).encode("utf-8"))
        want = _refusal(lambda ds_id: _full_load(repo, ds_id), i1)
        assert (want and want[0]) == refusal
        for _ in range(2):  # the second read follows whatever the first one kept
            assert _refusal(repo.load, i1) == want
            assert _refusal(lambda ds_id: repo.compare(ds_id, i2), i1) == want
            errors = repo.compare_matrix([i2, i1])["errors"]
            assert errors == ({} if want is None else {f"{i2},{i1}": want[1], f"{i1},{i1}": want[1]})
        if want is None:
            _assert_same_dataset(repo.load(i1), _full_load(repo, i1))

    def test_a_loaded_dataset_shares_nothing_mutable(self, repo, tmp_path):
        ds_id = repo.ingest(write_dataset(tmp_path, _nested_dataset(51)))
        want = _full_load(repo, ds_id)
        for fresh in (repo, Repository(repo.root)):  # an ingested entry, then a loaded one
            for _ in range(2):
                ds = fresh.load(ds_id)
                _assert_same_dataset(ds, want)
                ds.counts[0][0, 1] += 5
                ds.counts.append(ds.counts[0])
                ds.settings[0] = ds.settings[1]
                ds.settings.append(ds.settings[0])
                ds.provenance["seed"] = -1
                ds.provenance["nested"][1]["k"].append(0)

    def test_no_budget_reads_every_load_with_the_same_outputs(self, tmp_path, monkeypatch, reads):
        def outputs(root):
            repo = Repository(root)
            ids = [repo.ingest(write_dataset(tmp_path, _nested_dataset(s), f"{s}.json")) for s in (51, 52)]
            loaded = repo.load(ids[0])
            return repo, ids, loaded, repo.compare_matrix(ids), repo.compare(ids[0], ids[1])

        repo, ids, loaded, matrix, report = outputs(tmp_path / "kept")
        assert len(reads) == 2
        monkeypatch.setattr(repository, "VERIFIED_BYTES", 0)
        none, *rest = outputs(tmp_path / "none")
        assert len(reads) == 2 + 7 and none.nbytes == 0  # two ingests, then every load
        _assert_same_dataset(rest[1], loaded)
        assert rest[0] == ids and rest[2:] == [matrix, report]

    def test_an_entry_is_kept_only_if_it_fits(self, repo, tmp_path, monkeypatch, reads):
        ids = [repo.ingest(write_dataset(tmp_path, _nested_dataset(s), f"{s}.json")) for s in (51, 52)]
        stored = (repo.datasets_dir / f"{ids[0]}.json").read_bytes()
        size = len(stored) + sum(c.nbytes for c in repo.load(ids[0]).counts)
        monkeypatch.setattr(repository, "VERIFIED_BYTES", size)  # room for the first id alone
        fresh = Repository(repo.root)
        del reads[:]
        for ds_id in ids + ids:
            fresh.load(ds_id)
        assert len(reads) == 3 and fresh.nbytes == size


class TestDatasetIds:
    @pytest.mark.parametrize("bad", ["../index", "../../x", "0" * 15, "0" * 17, "A" * 16, "0" * 16 + "\n"])
    def test_an_id_that_is_no_digest_opens_no_file(self, bad, repo, tmp_path, monkeypatch):
        ds_id = repo.ingest(write_dataset(tmp_path, tiny_dataset()))
        (tmp_path / "x.json").write_text("{}")  # where ../../x would lead
        opened = []
        for name in ("read_bytes", "read_text"):
            real = getattr(Path, name)
            monkeypatch.setattr(Path, name, lambda self, *a, _real=real, **kw: opened.append(self) or _real(self, *a, **kw))
        with pytest.raises(KeyError) as raised:
            repo.load(bad)
        assert str(raised.value) == str(KeyError(f"unknown dataset id {bad!r}"))
        assert opened == []
        report = repo.compare_matrix([ds_id, bad])
        assert report["errors"] == {f"{ds_id},{bad}": str(raised.value), f"{bad},{bad}": str(raised.value)}
        assert opened == [repo.datasets_dir / f"{ds_id}.json"]
