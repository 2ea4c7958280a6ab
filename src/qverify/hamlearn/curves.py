"""Reconstruction-quality curves over constraint counts or shot budgets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qsim.state import QuantumState
from .constraints import ConstraintSet, build_constraints, enumerate_candidates
from .kmatrix import KRowEngine, KSampler
from .opbasis import OperatorBasis
from .reconstruct import LearnResult, reconstruct, solution_distance


@dataclass
class CurvePoint:
    control: float  # the grid value (constraint count or shots per entry)
    median_distance: float  # to the recovered null space
    q25: float
    q75: float
    gap: float  # median correlation-matrix gap
    smallest_singular_value: float  # median sigma_min
    null_dim: float  # median null-space dimension
    null_dim_min: int  # smallest and largest over the seeds
    null_dim_max: int
    n_seeds: int


def _summary(c_true: np.ndarray, res: LearnResult) -> tuple[float, float, float, int]:
    return solution_distance(c_true, res), res.gap, res.singular_values[-1], len(res.null_space)


def _aggregate(control, stats) -> CurvePoint:
    dists, gaps, sigmas, dims = zip(*stats)
    d = np.asarray(dists, dtype=float)
    return CurvePoint(
        control=control,
        median_distance=float(np.median(d)),
        q25=float(np.quantile(d, 0.25)),
        q75=float(np.quantile(d, 0.75)),
        gap=float(np.median(gaps)),
        smallest_singular_value=float(np.median(sigmas)),
        null_dim=float(np.median(dims)),
        null_dim_min=min(dims),
        null_dim_max=max(dims),
        n_seeds=len(d),
    )


def learning_curve(
    state: QuantumState,
    op_basis: OperatorBasis,
    *,
    constraint_grid: list[int] | None = None,
    shot_grid: list[int] | None = None,
    constraints: ConstraintSet | None = None,
    seeds: list[int] = (0,),
    engine: KRowEngine | None = None,
) -> list[CurvePoint]:
    """Median reconstruction distance across seeds, on one grid.

    Exactly one of ``constraint_grid`` (exact K, per-seed shuffled candidate
    order) or ``shot_grid`` (sampled K on a fixed constraint set, per-seed
    measurement noise) must be given.  Distances run from the lattice's
    Hubbard coefficients to each K's null space (``solution_distance``).
    One engine, ``engine`` or one built once the arguments are checked,
    serves either grid.
    """
    if (constraint_grid is None) == (shot_grid is None):
        raise ValueError("give exactly one of constraint_grid or shot_grid")
    kind, grid = ("constraint", constraint_grid) if shot_grid is None else ("shot", shot_grid)
    grid = sorted(set(int(n) for n in grid))
    if not grid or grid[0] < 1:
        raise ValueError(f"{kind} counts must be positive")
    if shot_grid is not None and constraints is None:
        raise ValueError("shot_grid curves need a fixed ConstraintSet")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    c_true = op_basis.coefficient_vector()
    eng = engine if engine is not None else KRowEngine(state, op_basis)

    if constraint_grid is not None:
        pool = enumerate_candidates(op_basis.lattice)
        per_seed: dict[int, list[tuple]] = {n: [] for n in grid}
        for seed in seeds:
            cs = build_constraints(
                state,
                op_basis,
                n_constraints=grid[-1],
                candidates=pool,
                shuffle_seed=seed,
                engine=eng,
            )
            rows = eng.rows(cs.ops)
            for n in grid:
                per_seed[n].append(_summary(c_true, reconstruct(rows[:n])))
        return [_aggregate(n, per_seed[n]) for n in grid]

    sampler = KSampler(eng, constraints)
    return [
        _aggregate(shots, [_summary(c_true, reconstruct(sampler.sample(shots, seed))) for seed in seeds])
        for shots in grid
    ]


def fit_loglog_slope(points: list[CurvePoint]) -> float:
    """Least-squares slope of log10(median distance) vs log10(control)."""
    x = np.log10([p.control for p in points])
    y = np.log10([max(p.median_distance, 1e-300) for p in points])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
