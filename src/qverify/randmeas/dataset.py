"""Per-device randomized-measurement datasets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..qsim import QuantumState, sample_counts
from ..rng import GENERATOR_ID, make_rngs
from .settings import MeasurementSetting

NO_SHOTS = "need at least one shot per setting"


@dataclass
class RandMeasDataset:
    device_id: str
    state_label: str
    num_qubits: int
    settings: list[MeasurementSetting]
    # per setting, int64 (outcome index, count) rows; indices ascending, qubit 0 the high bit
    counts: list[np.ndarray]
    shots_per_setting: int
    provenance: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check every dataset invariant; each message names its setting."""
        if len(self.settings) != len(self.counts):
            u = min(len(self.settings), len(self.counts))
            raise ValueError(
                f"setting {u}: {len(self.settings)} settings but {len(self.counts)} counts arrays"
            )
        if not self.settings:
            raise ValueError("settings must be non-empty")
        if self.shots_per_setting < 1:
            raise ValueError(NO_SHOTS)
        for u, s in enumerate(self.settings):
            if s.num_qubits != self.num_qubits:
                raise ValueError(f"setting {u}: width {s.num_qubits} != {self.num_qubits} qubits")
        shaped = [
            isinstance(c, np.ndarray) and c.dtype == np.int64 and c.shape[1:] == (2,)
            for c in self.counts
        ]
        good = shaped.index(False) if False in shaped else len(shaped)
        blocks = self.counts[:good]
        rows = np.concatenate([np.empty((0, 2), np.int64), *blocks])
        outcomes, n = rows[:, 0], rows[:, 1]
        block_of = np.repeat(np.arange(good), [len(c) for c in blocks])
        descent = block_of[1:][(np.diff(outcomes) <= 0) & (block_of[1:] == block_of[:-1])]
        outside = block_of[(outcomes < 0) | (outcomes >> self.num_qubits != 0)]
        totals = [sum(c[:, 1].tolist()) for c in blocks]  # exact: an int64 sum could wrap
        shots = self.shots_per_setting
        # (setting, rank of the check, message): the first setting's first failing check
        faults = [(good, 0, "counts must be an int64 (K, 2) array")] * (good < len(shaped))
        disorder = "outcomes must ascend strictly within the register"
        faults += [(u, 1, disorder) for u in (*descent[:1], *outside[:1])]
        faults += [(u, 2, "negative count") for u in block_of[n < 0][:1]]
        wrong = [(u, t) for u, t in enumerate(totals) if t != shots][:1]
        faults += [(u, 3, f"counts sum {t} != shots_per_setting {shots}") for u, t in wrong]
        if faults:
            u, _, message = min(faults)
            raise ValueError(f"setting {u}: {message}")

    @property
    def n_settings(self) -> int:
        return len(self.settings)


def collect(
    state: QuantumState,
    settings: list[MeasurementSetting],
    shots_per_setting: int,
    seed: int,
    device_id: str = "device",
    state_label: str = "state",
) -> RandMeasDataset:
    """Rotate by each setting and record computational-basis counts."""
    if shots_per_setting < 1:
        raise ValueError(NO_SHOTS)
    counts = []
    for setting, rng in zip(settings, make_rngs(seed, "measure", indices=range(len(settings)))):
        counts.append(sample_counts(state.rotated(setting.unitaries()), shots_per_setting, rng))
    ds = RandMeasDataset(
        device_id=device_id,
        state_label=state_label,
        num_qubits=state.num_qubits,
        settings=list(settings),
        counts=counts,
        shots_per_setting=shots_per_setting,
        provenance={"seed": seed, "generator": GENERATOR_ID, "stream": "measure"},
    )
    ds.validate()
    return ds
