"""Measurement-budget scaling of the cross-device overlap estimator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qsim import QuantumState, ghz_state
from ..rng import child_seed
from .dataset import collect
from .estimators import estimate_overlap
from .settings import sample_settings


@dataclass(frozen=True)
class ScalingPoint:
    num_qubits: int
    n_u: int
    n_m: int
    budget: int
    median_error: float


@dataclass(frozen=True)
class ScalingResult:
    points: list[ScalingPoint]
    exponent: float
    error_target: float
    ensemble: str


def _median_error(
    state: QuantumState,
    exact: float,
    n_u: int,
    n_m: int,
    ensemble: str,
    seeds,
    seed: int,
) -> float:
    n = state.num_qubits
    errs = []
    for rep in seeds:
        settings = sample_settings(n, n_u, child_seed(seed, "set", n, n_u, rep), ensemble)
        ds1 = collect(state, settings, n_m, child_seed(seed, "d1", n, n_u, rep), "dev1")
        ds2 = collect(state, settings, n_m, child_seed(seed, "d2", n, n_u, rep), "dev2")
        errs.append(abs(estimate_overlap(ds1, ds2).value - exact))
    return float(np.median(errs))


def scaling_probe(
    n_list,
    error_target: float,
    ensemble: str = "clifford",
    seeds=(0, 1, 2, 3, 4),
    n_m: int = 64,
    budget_cap: int = 2**20,
    seed: int = 0,
) -> ScalingResult:
    """Smallest budget N_U*N_M whose median |overlap error| on GHZ(N) crosses
    the target.

    N_M is held fixed; N_U is grown by doubling and then bisected to the
    smallest passing value.  The exponent is the slope of log2(budget) vs N.
    A target that no budget up to ``budget_cap`` reaches raises ValueError.
    """
    n_list = list(n_list)
    if not n_list or min(n_list) < 1:
        raise ValueError(f"need one or more positive register widths (got {n_list})")
    if not seeds:
        raise ValueError("need at least one seed")
    if n_m < 1:
        raise ValueError(f"need at least one shot per setting (got {n_m})")
    if not 0.0 < error_target < float("inf"):
        raise ValueError(f"error target must be positive and finite (got {error_target})")
    points: list[ScalingPoint] = []
    for n in n_list:
        state = ghz_state(n)
        rho = state.as_density()
        exact = float(np.real(np.trace(rho @ rho)))
        n_u_cap = max(1, budget_cap // n_m)

        def err_at(n_u: int, n=n, state=state, exact=exact) -> float:
            return _median_error(state, exact, n_u, n_m, ensemble, seeds, seed)

        hi = 1
        while err_at(hi) >= error_target:
            hi *= 2
            if hi > n_u_cap:
                raise ValueError(
                    f"error target {error_target:g} not reached within the budget cap "
                    f"of {budget_cap} measurements at N={n}"
                )
        lo = hi // 2  # highest known-failing value (0 when N_U=1 already passes)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if err_at(mid) < error_target:
                hi = mid
            else:
                lo = mid
        points.append(ScalingPoint(n, hi, n_m, hi * n_m, err_at(hi)))
    budgets = np.log2([p.budget for p in points])
    if len(points) >= 2:
        exponent = float(np.polyfit(np.asarray(n_list, dtype=float), budgets, 1)[0])
    else:
        exponent = float("nan")
    return ScalingResult(points, exponent, error_target, ensemble)
