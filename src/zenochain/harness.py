"""Scenario runners: single simulations, the G-sweep, and fluctuation trials.

Sweep and Monte Carlo cells are pure computations with their own seeded
generators; they run on a thread pool capped by the ZENO_CHAIN_THREADS
environment variable, and results are always assembled in submission order
so output is deterministic.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic
from .chain import ChainHamiltonians, ChainSpec, CouplingFluctuation, build_chain, interior_block
from .dynamics import (
    DEFAULT_N_STEPS,
    EvolutionTrace,
    LeakageReport,
    TimeGrid,
    default_time_grid,
    measure_leakage,
    simulate,
)
from .errors import ValidationError
from .linalg import invert_tridiag
from .perturbation import EffectiveHamiltonianReport
from .qzd import QzdClassification, QzdOrder, WatchAnalysis, analyze_watch

# Unused here, but perfbench/spans.py BINDINGS patches these names on this module.
from .linalg import eig_sym_tridiag  # noqa: F401
from .perturbation import group_levels, hqzd_order0, hqzd_order1, reduced_resolvent  # noqa: F401
from .qzd import classify  # noqa: F401

THREADS_ENV_VAR = "ZENO_CHAIN_THREADS"


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValidationError(f"{THREADS_ENV_VAR}: must be an integer") from exc
        if n < 1:
            raise ValidationError(f"{THREADS_ENV_VAR}: must be >= 1")
        return n
    return min(32, os.cpu_count() or 1)


def _map_ordered(fn, items):
    """Map preserving order; parallel only when more than one worker."""
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Everything a single-chain run produces."""

    hams: ChainHamiltonians
    trace: EvolutionTrace
    leakage: LeakageReport
    classification: QzdClassification
    order0: EffectiveHamiltonianReport
    order1: EffectiveHamiltonianReport
    zero_basis: np.ndarray


def effective_reports(hams: ChainHamiltonians) -> WatchAnalysis:
    """The chain's watch analysis: effective Hamiltonians and zero basis."""
    analysis = analyze_watch(hams.h_watch, hams.h_weak, hams.spec.lam)
    if not analysis.levels.has_zero_level:
        raise ValidationError("chain watch matrix has no zero level")
    return analysis


def run_scenario(
    spec: ChainSpec,
    grid: TimeGrid | None = None,
    n_steps: int = DEFAULT_N_STEPS,
) -> ScenarioResult:
    """Build the chain, classify it, and evolve |1> across the window."""
    hams = build_chain(spec)
    if grid is None:
        grid = default_time_grid(hams, n_steps)

    psi0 = np.zeros(spec.n_sites)
    psi0[0] = 1.0

    analysis = effective_reports(hams)
    classification = analysis.classify(psi0)

    mid = None
    if spec.n_sites % 2 == 1 and not spec.is_modified:
        mid = analytic.phi_mid(spec.n_sites)

    trace = simulate(hams.h_total, psi0, grid, analysis.zero_basis, mid_state=mid)
    return ScenarioResult(
        hams=hams,
        trace=trace,
        leakage=measure_leakage(trace),
        classification=classification,
        order0=analysis.order0,
        order1=analysis.order1,
        zero_basis=analysis.zero_basis,
    )


def dominant_effective_matrix(result: ScenarioResult) -> np.ndarray:
    """The effective Hamiltonian matching the classified order (or zeros)."""
    if result.classification.order is QzdOrder.ZEROTH:
        return result.order0.matrix
    if result.classification.order is QzdOrder.FIRST:
        return result.order1.matrix
    return np.zeros_like(result.order0.matrix)


@dataclass(frozen=True)
class SweepCell:
    g: float
    n_sites: int
    lambda_inv: float
    delta: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-cell leakage of the G-sweep plus the quadratic-law fit."""

    rows: tuple[SweepCell, ...]
    g_values: tuple[float, ...]
    mean_delta: tuple[float, ...]
    flatness: tuple[float, ...]
    slope: float


def fit_slope_through_origin(x: np.ndarray, y: np.ndarray) -> float:
    """Ordinary least squares y ~ slope * x constrained through the origin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or x.size != y.size:
        raise ValidationError("fit: x and y must be equally sized and non-empty")
    denom = float(np.sum(x * x))
    if denom == 0.0:
        raise ValidationError("fit: all abscissae vanish")
    return float(np.sum(x * y) / denom)


def _end_leakage(hams: ChainHamiltonians, n_steps: int) -> float:
    """delta of |1> over the default window, watched on the two end sites."""
    n = hams.spec.n_sites
    ends = np.eye(n)[:, [0, -1]]
    trace = simulate(hams.h_total, ends[:, 0], default_time_grid(hams, n_steps), ends)
    return measure_leakage(trace).delta


def run_sweep(
    g_list: list[float],
    n_list: list[int],
    k: float = 1.0,
    n_steps: int = DEFAULT_N_STEPS,
) -> SweepResult:
    """Measure delta over a (G, N) grid with lam = G / f(N) per cell.

    The slope of mean delta against G^2 is fitted through the origin over
    the G values whose mean delta stays below the fit's validity limit.
    """
    if not g_list or not n_list:
        raise ValidationError("sweep: g_list and n_list must be non-empty")
    cells = []
    for g in g_list:
        for n in n_list:
            lam_inv = analytic.f_of_n(n) / g
            if lam_inv < 1.0:
                raise ValidationError(
                    f"sweep: G={g} at N={n} implies lambda_inv={lam_inv:.3f} < 1"
                )
            cells.append((g, n, lam_inv))

    def one_cell(cell: tuple[float, int, float]) -> SweepCell:
        g, n, lam_inv = cell
        hams = build_chain(ChainSpec(n_sites=n, lambda_inv=lam_inv, k=k))
        return SweepCell(g, n, lam_inv, _end_leakage(hams, n_steps))

    rows = _map_ordered(one_cell, cells)

    g_values, means, flats = [], [], []
    for g in g_list:
        deltas = np.array([row.delta for row in rows if row.g == g])
        mean = float(np.mean(deltas))
        g_values.append(g)
        means.append(mean)
        flats.append(float(np.max(np.abs(deltas - mean)) / mean))

    means_arr = np.array(means)
    keep = means_arr < analytic.DELTA_FIT_LIMIT
    if not np.any(keep):
        raise ValidationError(
            f"sweep: no mean delta below {analytic.DELTA_FIT_LIMIT}; nothing to fit"
        )
    slope = fit_slope_through_origin(
        np.array(g_values)[keep] ** 2, means_arr[keep]
    )
    return SweepResult(
        rows=tuple(rows),
        g_values=tuple(g_values),
        mean_delta=tuple(means),
        flatness=tuple(flats),
        slope=slope,
    )


@dataclass(frozen=True)
class FluctuationTrial:
    seed_offset: int
    corner_element: float
    delta: float


def run_fluctuation_trials(
    n_sites: int,
    amplitude: float,
    trials: int,
    seed: int,
    lambda_inv: float = 20.0,
    k: float = 1.0,
    n_steps: int = DEFAULT_N_STEPS,
) -> list[FluctuationTrial]:
    """Monte Carlo over chains with fluctuating interior couplings.

    Trial j seeds its generator with seed + j; each records the reduced
    resolvent's corner element <2|Qtilde|N-1> (via the interior-block
    inverse) and the measured delta of the full dynamics.
    """
    if trials < 1:
        raise ValidationError("trials: must be >= 1")
    if n_sites % 2 != 0:
        raise ValidationError("n_sites: fluctuation trials are defined for even chains")

    def one_trial(offset: int) -> FluctuationTrial:
        spec = ChainSpec(
            n_sites=n_sites,
            lambda_inv=lambda_inv,
            k=k,
            fluctuation=CouplingFluctuation(amplitude, seed + offset),
        )
        hams = build_chain(spec)
        inv = invert_tridiag(interior_block(hams.h_watch))
        corner = -float(inv[0, -1])
        return FluctuationTrial(offset, corner, _end_leakage(hams, n_steps))

    return _map_ordered(one_trial, list(range(trials)))
