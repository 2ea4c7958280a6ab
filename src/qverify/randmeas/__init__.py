"""Randomized-measurement toolbox: shared settings, datasets, fidelity estimators."""

from .cliffords import (
    CLIFFORD_TABLE,
    NUM_CLIFFORDS,
    clifford_index,
    phase_normalize,
)
from .dataset import RandMeasDataset, collect
from .estimators import (
    Estimate,
    FidelityEstimate,
    estimate_fmax,
    estimate_overlap,
    estimate_purity,
    exact_mode_overlap,
    marginal_probabilities,
)
from .scaling import ScalingPoint, ScalingResult, scaling_probe
from .settings import MeasurementSetting, haar_unitary, sample_settings

__all__ = [
    "CLIFFORD_TABLE",
    "NUM_CLIFFORDS",
    "Estimate",
    "FidelityEstimate",
    "MeasurementSetting",
    "RandMeasDataset",
    "ScalingPoint",
    "ScalingResult",
    "clifford_index",
    "collect",
    "estimate_fmax",
    "estimate_overlap",
    "estimate_purity",
    "exact_mode_overlap",
    "haar_unitary",
    "marginal_probabilities",
    "phase_normalize",
    "sample_settings",
    "scaling_probe",
]
