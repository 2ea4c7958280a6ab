"""File-based dataset repository: ingest, index, pairwise comparison.

Layout under the root directory:
  index.json           canonical map id -> summary (rewritten atomically)
  log.jsonl            append-only canonical records of ingests/comparisons
  datasets/<id>.json   canonical dataset files, id = content digest
  datasets/<id>.meta.json   ingestion timestamps (kept out of canonical data)

The layout is created by the first ingest; a root that does not exist
reads as an empty repository.  Single-writer discipline: mutations take an
advisory lock; readers never lock, which is safe because every write is
atomic.

An id is 16 lowercase hex digits.  A load whose bytes equal those verified
under its id returns a copy of their dataset, kept within ``VERIFIED_BYTES``.
"""

from __future__ import annotations

import copy
import fcntl
import io
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

from ..ioutil import append_line, atomic_write_text, error_text
from ..randmeas.dataset import RandMeasDataset
from ..randmeas.estimators import FidelityEstimate, estimate_fmax
from .format import (
    MalformedDatasetError,
    canonical_json,
    dataset_ensemble,
    json_safe,
    read_dataset_text,
)

VERIFIED_BYTES = 32 << 20  # per Repository: kept file bytes plus count arrays


def fidelity_to_dict(est: FidelityEstimate) -> dict:
    return json_safe(asdict(est))


class Repository:
    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.datasets_dir = self.root / "datasets"
        self.index_path = self.root / "index.json"
        self.log_path = self.root / "log.jsonl"
        self.nbytes = 0
        self._verified: dict[str, tuple[bytes, RandMeasDataset]] = {}

    def _keep(self, ds_id: str, data: bytes, ds: RandMeasDataset) -> tuple[bytes, RandMeasDataset]:
        """Keep what fits the budget; a replaced entry stays counted in ``nbytes``."""
        size = len(data) + sum(c.nbytes for c in ds.counts)
        if self.nbytes + size <= VERIFIED_BYTES:
            self._verified[ds_id] = (data, ds)
            self.nbytes += size
        return data, ds

    @contextmanager
    def _locked(self):
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def _read_index(self) -> dict:
        if not self.index_path.exists():
            return {"datasets": {}}
        index = json.loads(self.index_path.read_text(encoding="utf-8"))
        datasets = index.get("datasets") if isinstance(index, dict) else None
        if not (isinstance(datasets, dict) and all(isinstance(v, dict) for v in datasets.values())):
            raise MalformedDatasetError(
                f"{self.index_path}: index must be an object whose datasets map ids to objects"
            )
        return index

    def _write_index(self, index: dict) -> None:
        atomic_write_text(self.index_path, canonical_json(index) + "\n")

    def _log(self, record: dict) -> None:
        append_line(self.log_path, canonical_json(record))

    @staticmethod
    def _summary(ds: RandMeasDataset) -> dict:
        return {
            "device_id": ds.device_id,
            "state_label": ds.state_label,
            "num_qubits": ds.num_qubits,
            "ensemble": dataset_ensemble(ds),
            "n_settings": ds.n_settings,
            "shots_per_setting": ds.shots_per_setting,
        }

    def ingest(self, path: Path | str) -> str:
        """Validate and store a dataset file as the canonical text its digest was
        checked on; the id is that digest."""
        ds, doc, text = read_dataset_text(Path(path).read_text(encoding="utf-8"))
        ds_id = doc["digest"]
        with self._locked():
            index = self._read_index()
            duplicate = ds_id in index["datasets"]
            if not duplicate:
                atomic_write_text(self.datasets_dir / f"{ds_id}.json", text)
                atomic_write_text(
                    self.datasets_dir / f"{ds_id}.meta.json",
                    canonical_json(
                        {
                            "ingested_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                            "source": str(path),
                        }
                    )
                    + "\n",
                )
                index["datasets"][ds_id] = self._summary(ds)
                self._write_index(index)
            self._log({"op": "ingest", "id": ds_id, "duplicate": duplicate})
        self._keep(ds_id, text.encode("utf-8"), ds)
        return ds_id

    def list_datasets(self) -> list[dict]:
        index = self._read_index()
        return [
            {"id": ds_id, **summary}
            for ds_id, summary in sorted(index["datasets"].items())
        ]

    def _dataset_path(self, ds_id: str) -> Path:
        path = self.datasets_dir / f"{ds_id}.json"
        if not (len(ds_id) == 16 and set(ds_id) <= set("0123456789abcdef") and path.exists()):
            raise KeyError(f"unknown dataset id {ds_id!r}")
        return path

    def load(self, ds_id: str) -> RandMeasDataset:
        """Re-read the stored file, whose digest must equal its id, unless its
        bytes were verified under the id; the copy returned shares nothing mutable."""
        data = self._dataset_path(ds_id).read_bytes()
        if (kept := self._verified.get(ds_id)) is None or kept[0] != data:
            # the text read_text would give, newlines translated
            ds, doc, _ = read_dataset_text(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
            if doc["digest"] != ds_id:
                raise MalformedDatasetError(
                    f"stored file digest {doc['digest']!r} does not match id {ds_id!r}"
                )
            kept = self._keep(ds_id, data, ds)
        ds = kept[1]  # settings are frozen, with read-only matrices
        counts, provenance = [c.copy() for c in ds.counts], copy.deepcopy(ds.provenance)
        return replace(ds, settings=list(ds.settings), counts=counts, provenance=provenance)

    def compare(
        self,
        id_1: str,
        id_2: str,
        subsystems: list[tuple[int, ...] | None] | None = None,
    ) -> dict:
        """F_max per requested subsystem (None entry = full system)."""
        ds1 = self.load(id_1)
        ds2 = ds1 if id_2 == id_1 else self.load(id_2)  # same object: overlap routes to purity
        estimates = [
            {"subsystem": json_safe(sub), **fidelity_to_dict(estimate_fmax(ds1, ds2, sub))}
            for sub in (subsystems if subsystems is not None else [None])
        ]
        report = {
            "id_1": id_1,
            "id_2": id_2,
            "digest_1": id_1,  # load proved each digest equal to its id
            "digest_2": id_2,
            "estimates": estimates,
        }
        with self._locked():
            self._log({"op": "compare", **report})
        return report

    def compare_matrix(
        self, ids: list[str], subsystem: tuple[int, ...] | None = None
    ) -> dict:
        """Symmetric F_max matrix; failed pairs leave explicit null gaps."""
        n = len(ids)
        matrix: list[list[float | None]] = [[None] * n for _ in range(n)]
        errors: dict[str, str] = {}
        # each id is loaded once; a pair records the error of its first failed id
        loaded, failed = {}, {}
        for ds_id in dict.fromkeys(ids):
            try:
                loaded[ds_id] = self.load(ds_id)
            except (ValueError, KeyError) as exc:
                failed[ds_id] = exc
        for i in range(n):
            for j in range(i, n):
                try:
                    for ds_id in (ids[i], ids[j]):
                        if ds_id in failed:
                            raise failed[ds_id]
                    ds_i, ds_j = loaded[ids[i]], loaded[ids[j]]
                    matrix[i][j] = matrix[j][i] = estimate_fmax(ds_i, ds_j, subsystem).fmax
                except (ValueError, KeyError) as exc:
                    errors[f"{ids[i]},{ids[j]}"] = error_text(exc)
        report = {
            "ids": list(ids),
            "subsystem": json_safe(subsystem),
            "matrix": matrix,
            "errors": errors,
        }
        if self.root.is_dir():  # reading a missing root creates nothing
            with self._locked():
                self._log(
                    {"op": "compare_matrix", "ids": list(ids), "subsystem": json_safe(subsystem)}
                )
        return report
