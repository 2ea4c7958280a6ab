"""Central dataset repository: bit-exact files, digests, pairwise comparison."""

from .format import (
    FORMAT_VERSION,
    DigestMismatchError,
    MalformedDatasetError,
    RepoFormatError,
    UnsupportedVersionError,
    canonical_json,
    dataset_ensemble,
    document_digest,
    fnv1a64,
    json_safe,
    read_dataset_text,
    render_dataset,
    serialize_dataset,
)
from .repository import Repository, fidelity_to_dict

__all__ = [
    "FORMAT_VERSION",
    "DigestMismatchError",
    "MalformedDatasetError",
    "RepoFormatError",
    "Repository",
    "UnsupportedVersionError",
    "canonical_json",
    "dataset_ensemble",
    "document_digest",
    "fidelity_to_dict",
    "fnv1a64",
    "json_safe",
    "read_dataset_text",
    "render_dataset",
    "serialize_dataset",
]
