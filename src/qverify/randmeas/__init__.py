"""Randomized-measurement toolbox: shared settings, datasets, fidelity estimators."""

from .cliffords import (
    CLIFFORD_TABLE,
    NUM_CLIFFORDS,
    phase_normalize,
)
from .dataset import RandMeasDataset, collect
from .estimators import (
    Estimate,
    FidelityEstimate,
    estimate_fmax,
    estimate_overlap,
    exact_mode_overlap,
    jackknife,
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
    "collect",
    "estimate_fmax",
    "estimate_overlap",
    "exact_mode_overlap",
    "haar_unitary",
    "jackknife",
    "phase_normalize",
    "sample_settings",
    "scaling_probe",
]
