"""Reconstruction-quality curves over constraint counts or shot budgets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qsim.state import QuantumState
from .constraints import ConstraintSet, build_constraints, enumerate_candidates
from .kmatrix import KRowEngine, KSampler
from .opbasis import OperatorBasis
from .reconstruct import parameter_distance, reconstruct


@dataclass
class CurvePoint:
    control: float  # the grid value (constraint count or shots per entry)
    median_distance: float
    q25: float
    q75: float
    gap: float  # median correlation-matrix gap
    smallest_singular_value: float  # median sigma_min
    n_seeds: int


def _aggregate(control, dists, gaps, sigmas) -> CurvePoint:
    d = np.asarray(dists, dtype=float)
    return CurvePoint(
        control=control,
        median_distance=float(np.median(d)),
        q25=float(np.quantile(d, 0.25)),
        q75=float(np.quantile(d, 0.75)),
        gap=float(np.median(gaps)),
        smallest_singular_value=float(np.median(sigmas)),
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
    measurement noise) must be given.  Distances are against the
    lattice's Hubbard coefficients.  One engine, ``engine`` or one built
    once the arguments are checked, serves either grid.
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

    points: list[CurvePoint] = []
    if constraint_grid is not None:
        pool = enumerate_candidates(op_basis.lattice)
        per_seed: dict[int, list[tuple[float, float, float]]] = {n: [] for n in grid}
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
                res = reconstruct(rows[:n])
                d = parameter_distance(c_true, res.coefficients)
                per_seed[n].append((d, res.gap, res.singular_values[-1]))
        for n in grid:
            ds, gs, ss = zip(*per_seed[n])
            points.append(_aggregate(n, ds, gs, ss))
        return points

    sampler = KSampler(eng, constraints)
    for shots in grid:
        dists, gaps, sigmas = [], [], []
        for seed in seeds:
            res = reconstruct(sampler.sample(shots, seed))
            dists.append(parameter_distance(c_true, res.coefficients))
            gaps.append(res.gap)
            sigmas.append(res.singular_values[-1])
        points.append(_aggregate(shots, dists, gaps, sigmas))
    return points


def fit_loglog_slope(points: list[CurvePoint]) -> float:
    """Least-squares slope of log10(median distance) vs log10(control)."""
    x = np.log10([p.control for p in points])
    y = np.log10([max(p.median_distance, 1e-300) for p in points])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
