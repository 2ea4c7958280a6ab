"""Bit-exact dataset file format.

Canonical form: JSON with object keys sorted lexicographically, separators
"," and ":" with no whitespace, strings escaped with ASCII-only stdlib rules,
and floats printed via %.17g (17 significant digits round-trips IEEE doubles)
with a ".0" suffix forced onto integral values so types survive re-parsing.
A container whose leaves are all exactly str, int, bool or None, with str
keys throughout, is written by one call of the stdlib C encoder, whose
output for those types is the canonical text; anything else (floats, numpy
scalars, other keys) takes the recursive writer and its errors.
The integrity digest is 64-bit FNV-1a over the UTF-8 bytes of the canonical
text of the document with the "digest" key removed, rendered as 16 lowercase
hex digits.  UTF-8 text pins the byte order of the stream on every platform.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np

from ..randmeas.dataset import RandMeasDataset
from ..randmeas.settings import MeasurementSetting

FORMAT_VERSION = 1
MAX_QUBITS = 63  # outcome indices are held as int64
MAX_COUNT = 2**63 - 1  # and so are counts

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211


class RepoFormatError(ValueError):
    """Base class for dataset file format errors."""


class MalformedDatasetError(RepoFormatError):
    pass


class DigestMismatchError(RepoFormatError):
    pass


class UnsupportedVersionError(RepoFormatError):
    pass


def fnv1a64(data: bytes) -> int:
    # four bytes per masked step: XOR with a byte touches only the low 8 bits,
    # and reduction mod 2**64 commutes with the multiply
    h, p, it = FNV_OFFSET, FNV_PRIME, iter(data)
    for a, b, c, d in zip(it, it, it, it):
        h = ((((h ^ a) * p ^ b) * p ^ c) * p ^ d) * p & 0xFFFFFFFFFFFFFFFF
    for byte in data[len(data) & ~3 :]:
        h = (h ^ byte) * p & 0xFFFFFFFFFFFFFFFF
    return h


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise MalformedDatasetError(f"non-finite float {v!r} not representable")
    s = format(v, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


_ENCODER = json.JSONEncoder(ensure_ascii=True, separators=(",", ":"), sort_keys=True)


def _float_free(obj) -> bool:
    """Whether every leaf is exactly a str, int, bool or None and every key a str."""
    kind = type(obj)
    if kind is dict:
        return all(type(k) is str for k in obj) and all(map(_float_free, obj.values()))
    if kind is list or kind is tuple:
        return all(map(_float_free, obj))
    return kind is str or kind is int or kind is bool or obj is None


def _canonical_text(obj) -> str:
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
            f"{json.dumps(k, ensure_ascii=True)}:{_canonical_text(obj[k])}"
            for k in sorted(obj)
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_text(v) for v in obj) + "]"
    raise MalformedDatasetError(f"unserializable value of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Serialize to the canonical text form (see module docstring)."""
    return _ENCODER.encode(obj) if _float_free(obj) else _canonical_text(obj)


def json_safe(value):
    """Copy of a JSON value with tuples as lists and every non-finite float as
    None, which ``canonical_json`` writes as null."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def seal_document(doc: dict, texts: dict[str, str] | None = None) -> tuple[str, str]:
    """A document's file text and digest from one rendering of each field
    but "digest": ``texts`` holds fields already rendered, and the rest of
    ``doc`` renders through ``canonical_json`` in key order, so the first
    field that cannot be written raises, as a whole-document render would."""
    given = texts or {}
    texts = {k: canonical_json(v) for k, v in sorted(doc.items()) if k not in given and k != "digest"}
    texts.update(given)
    fields = [f"{_ENCODER.encode(k)}:{texts[k]}" for k in sorted(texts)]
    digest = format(fnv1a64(("{" + ",".join(fields) + "}").encode("utf-8")), "016x")
    fields.insert(sum(k < "digest" for k in texts), f'"digest":"{digest}"')
    return "{" + ",".join(fields) + "}\n", digest


def document_digest(doc: dict) -> str:
    return seal_document(doc)[1]


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(e.real), float(e.imag)] for e in np.asarray(m).ravel()]


def _pairs_to_matrix(pairs) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != 4:
        raise MalformedDatasetError("explicit setting needs 4 [re, im] entries")
    vals = []
    for p in pairs:
        if not isinstance(p, list) or len(p) != 2 or not all(is_number(x) for x in p):
            raise MalformedDatasetError("matrix entries must be [re, im] pairs")
        vals.append(float(p[0]) + 1j * float(p[1]))
    return np.array(vals, dtype=complex).reshape(2, 2)


def dataset_ensemble(ds: RandMeasDataset) -> str:
    if all(s.clifford_indices is not None for s in ds.settings):
        return "clifford"
    if all(s.matrices is not None for s in ds.settings):
        return "haar"
    raise MalformedDatasetError("settings mix Clifford indices and explicit matrices")


def _counts_text(indices: np.ndarray, counts: np.ndarray, lengths: list[int], n: int) -> str:
    """The canonical text of valid counts blocks (none empty, no count
    negative) from one row of ASCII codes per entry, ["bits",count] and a
    separator, where NUL pads the leading digits and the separator."""
    width = len(str(int(counts.max())))
    powers = np.int64(10) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    rows = np.zeros((len(counts), n + width + 8), np.uint8)
    rows[:, :2], rows[:, n + 2 : n + 4], rows[:, -4:-2] = list(b'["'), list(b'",'), list(b"],")
    rows[:, 2 : n + 2] = indices[:, None] >> np.arange(n - 1, -1, -1, dtype=np.int64) & 1 | ord("0")
    quotients = counts[:, None] // powers  # 0 exactly at the leading zeros
    rows[:, n + 4 : n + 4 + width] = (quotients % 10 + ord("0")) * ((quotients > 0) | (powers == 1))
    rows[np.cumsum(lengths) - 1, -3:] = list(b"],[")  # the last entry of a block
    rows[-1, -3:] = list(b"]\0\0")
    codes = rows.ravel()
    return "[[" + codes[codes != 0].tobytes().decode("ascii") + "]"


def render_dataset(ds: RandMeasDataset) -> tuple[str, str]:
    """The one writer of a dataset file: its canonical text and its digest."""
    ds.validate()
    ensemble = dataset_ensemble(ds)
    if ensemble == "clifford":
        settings = [list(s.clifford_indices) for s in ds.settings]
    else:
        settings = [[_matrix_to_pairs(m) for m in s.matrices] for s in ds.settings]
    rows, lengths = np.concatenate(ds.counts), [len(c) for c in ds.counts]
    # a numpy integer writes as the int it holds, which the header check takes
    n, shots = (v.item() if isinstance(v, np.integer) else v for v in (ds.num_qubits, ds.shots_per_setting))
    doc = {
        "format_version": FORMAT_VERSION,
        "device_id": ds.device_id,
        "state_label": ds.state_label,
        "num_qubits": n,
        "ensemble": ensemble,
        "settings": settings,
        "counts": list(ds.counts),  # typed here, rendered from its columns below
        "shots_per_setting": shots,
        "provenance": dict(ds.provenance),
    }
    _check_header(doc)
    return seal_document(doc, {"counts": _counts_text(rows[:, 0], rows[:, 1], lengths, n)})


def serialize_dataset(ds: RandMeasDataset) -> str:
    return render_dataset(ds)[0]


_REQUIRED_KEYS = (
    "format_version",
    "device_id",
    "state_label",
    "num_qubits",
    "ensemble",
    "settings",
    "counts",
    "shots_per_setting",
    "provenance",
    "digest",
)

_FIELD_TYPES = (
    ("device_id", str),
    ("state_label", str),
    ("provenance", dict),
    ("settings", list),
    ("counts", list),
)


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def parse_envelope(text: str, required: tuple[str, ...]) -> dict:
    """Parse the envelope every file format shares: a JSON object with the
    required keys and a supported integer ``format_version``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDatasetError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedDatasetError("top level must be an object")
    for key in required:
        if key not in doc:
            raise MalformedDatasetError(f"missing key {key!r}")
    if not is_int(doc["format_version"]) or doc["format_version"] != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format_version {doc['format_version']!r} unsupported (expected {FORMAT_VERSION})"
        )
    return doc


def check_digest(doc: dict, want: str) -> None:
    if doc["digest"] != want:
        raise DigestMismatchError(f"digest {doc['digest']!r} != computed {want!r}")


def _check_header(doc: dict) -> None:
    """Check every field but the setting specs and counts entries: JSON types,
    the ensemble tag, the qubit range, integer shots.  Reader and writer both
    run it, so the writer writes only what the reader reads."""
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


def _check_fields(doc: dict) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Check what only the file format can: the header, the setting specs and
    the counts entries.  The dataset invariants are ``validate``'s to check."""
    _check_header(doc)
    n = doc["num_qubits"]
    for u, spec in enumerate(doc["settings"]):
        if not isinstance(spec, list) or (
            doc["ensemble"] == "clifford" and not all(is_int(i) for i in spec)
        ):
            raise MalformedDatasetError(f"setting {u}: malformed spec {spec!r}")
    return _count_columns(doc["counts"], n)


def _count_columns(blocks: list, n: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Check the counts of all blocks together, by column; return each block's
    length, then every entry's outcome index and count in file order."""
    # JSON gives exact types, so type() stands for isinstance; an entry's row
    # is its bitstring and a comma, with any non-ASCII character as "?"
    flat = list(chain.from_iterable(blocks)) if set(map(type, blocks)) <= {list} else [None]
    if set(map(type, flat)) <= {list} and set(map(len, flat)) <= {2}:
        bits, cnts = list(map(itemgetter(0), flat)), list(map(itemgetter(1), flat))
        typed = set(map(type, cnts)) <= {int}
        try:  # a bitstring that is no str, a count past int64
            text, counts = ",".join([*bits, ""]), np.array(cnts if typed else [], dtype=np.int64)
        except (TypeError, OverflowError):
            typed = False
        if typed and len(text) == len(flat) * (n + 1) and not np.any(counts == -MAX_COUNT - 1):
            rows = np.frombuffer(text.encode("ascii", "replace"), np.uint8).reshape(-1, n + 1)
            digits = rows[:, :n] - ord("0")  # wraps below "0"
            if np.all(digits <= 1) and np.all(rows[:, n] == ord(",")):
                weights = np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)
                return [len(b) for b in blocks], digits.astype(np.int64) @ weights, counts
    for u, block in enumerate(blocks):  # a fault: name the first offending block or entry
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


def _to_dataset(doc: dict, lengths: list[int], indices: np.ndarray, cnts: np.ndarray) -> RandMeasDataset:
    settings = []
    for u, spec in enumerate(doc["settings"]):
        try:
            if doc["ensemble"] == "clifford":
                settings.append(MeasurementSetting(clifford_indices=tuple(spec)))
            else:
                settings.append(MeasurementSetting(matrices=tuple(_pairs_to_matrix(q) for q in spec)))
        except ValueError as exc:
            raise MalformedDatasetError(f"setting {u}: {exc}") from None
    # per block, the order of a sort of (index, count) tuples: a count breaks
    # only ties of a repeated outcome, which validate refuses in any order
    block_of = np.repeat(np.arange(len(lengths)), lengths)
    rows = np.stack((indices, cnts), axis=1)[np.lexsort((indices, block_of))]
    bounds = [0, *accumulate(lengths)]
    ds = RandMeasDataset(
        device_id=doc["device_id"],
        state_label=doc["state_label"],
        num_qubits=doc["num_qubits"],
        settings=settings,
        counts=[rows[a:b] for a, b in zip(bounds, bounds[1:])],
        shots_per_setting=doc["shots_per_setting"],
        provenance=dict(doc["provenance"]),
    )
    try:
        ds.validate()
    except ValueError as exc:
        raise MalformedDatasetError(str(exc)) from None
    return ds


def read_dataset_text(text: str) -> tuple[RandMeasDataset, dict, str]:
    """The one reader of a dataset file: envelope, field types, conversion
    (which runs the dataset's own invariant checks), then the digest of the
    parsed document's canonical text.  Returns the dataset, the parsed
    document and that text, the file ``serialize_dataset`` writes for it."""
    doc = parse_envelope(text, _REQUIRED_KEYS)
    lengths, indices, counts = _check_fields(doc)
    ds = _to_dataset(doc, lengths, indices, counts)
    texts = {"counts": _counts_text(indices, counts, lengths, doc["num_qubits"])}
    if doc["ensemble"] == "clifford":  # int lists, as checked: no float-free walk
        texts["settings"] = _ENCODER.encode(doc["settings"])
    canonical, digest = seal_document(doc, texts)
    check_digest(doc, digest)
    return ds, doc, canonical
