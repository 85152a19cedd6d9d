"""Scenario runners: single simulations, the G-sweep, and fluctuation trials.

Sweep and Monte Carlo cells are pure computations with their own seeded
generators, run one after another in submission order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import analytic
from .chain import ChainHamiltonians, ChainSpec, CouplingFluctuation, build_chain, interior_block
from .dynamics import (
    DEFAULT_N_STEPS,
    EvolutionTrace,
    LeakageReport,
    TimeGrid,
    default_time_grid,
    effective_reports,
    leakage_series,
    leakage_trace,
    peak_report,
    site_one,
    unit_window,
)
from .errors import ValidationError
from .linalg import SpectralDecomposition, eig_sym_tridiag, inverse_corner_tridiag
from .perturbation import EffectiveHamiltonianReport, default_grouping_tolerance
from .qzd import QzdClassification, QzdOrder, from_units_of_k

# Unused here, but perfbench/spans.py BINDINGS patches these names on this module.
from .dynamics import measure_leakage, simulate  # noqa: F401
from .perturbation import group_levels, hqzd_order0, hqzd_order1, reduced_resolvent  # noqa: F401
from .qzd import classify  # noqa: F401


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Everything a single-chain run produces, read from units of k.

    ``spectrum`` is the eigendecomposition of h_total and
    ``leakage_series`` the leakage at every grid time, whose peak is
    ``leakage``. ``trace``, every site's population at every grid time, is
    built from the spectrum on first read and then kept; its leakage is
    ``leakage_series``.
    """

    hams: ChainHamiltonians
    grid: TimeGrid
    spectrum: SpectralDecomposition
    leakage: LeakageReport
    leakage_series: np.ndarray
    classification: QzdClassification
    order0: EffectiveHamiltonianReport
    order1: EffectiveHamiltonianReport
    zero_basis: np.ndarray

    @cached_property
    def trace(self) -> EvolutionTrace:
        spec = self.hams.spec
        mid = None
        if spec.n_sites % 2 == 1 and not spec.is_modified:
            mid = analytic.phi_mid(spec.n_sites)
        psi0 = site_one(spec.n_sites)
        return leakage_trace(self.spectrum, psi0, self.grid, self.leakage_series, mid_state=mid)


def run_scenario(
    spec: ChainSpec,
    grid: TimeGrid | None = None,
    n_steps: int = DEFAULT_N_STEPS,
) -> ScenarioResult:
    """Build the chain, classify it, and measure the leakage of |1> over the window.

    Without ``grid`` the window is one cycle of the classified order's
    effective dynamics (``WatchAnalysis.cycle``); a chain whose order has
    no cycle raises UnsupportedConfigurationError and needs an explicit grid.
    """
    hams = build_chain(spec)
    psi0 = site_one(spec.n_sites)

    analysis = effective_reports(hams)
    classification = analysis.classify(psi0)
    if grid is None:
        window = unit_window(hams.unit, analysis, n_steps, analysis.cycle(classification.order))
        grid = TimeGrid(from_units_of_k(window.t_max, spec.k, -1), n_steps)
    else:
        window = unit_window(hams.unit, analysis, grid.n_steps, grid.t_max * spec.k, "t_max")

    d = eig_sym_tridiag(hams.unit.h_total)
    series = leakage_series(d, psi0, analysis.zero_basis, window)
    w = from_units_of_k(d.eigenvalues, spec.k, 1, default_grouping_tolerance(d.eigenvalues))
    return ScenarioResult(
        hams=hams,
        grid=grid,
        spectrum=SpectralDecomposition(w, d.eigenvectors),
        leakage=peak_report(series, grid),
        leakage_series=series,
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


def _end_leakage(hams: ChainHamiltonians, grid: TimeGrid) -> float:
    """delta of |1> over ``grid``, watched on the two end sites."""
    ends = np.eye(hams.spec.n_sites)[:, [0, -1]]
    return float(np.max(leakage_series(eig_sym_tridiag(hams.h_total), ends[:, 0], ends, grid)))


def run_sweep(
    g_list: list[float],
    n_list: list[int],
    n_steps: int = DEFAULT_N_STEPS,
) -> SweepResult:
    """Measure delta over a (G, N) grid with lam = G / f(N) per cell.

    An unshifted watch holds no lam, so it is analysed once per N. The slope
    of mean delta against G^2 is fitted through the origin over the G values
    whose mean delta stays below the fit's validity limit.
    """
    if not g_list or not n_list:
        raise ValidationError("sweep: g_list and n_list must be non-empty")
    for g in g_list:
        if not (math.isfinite(g) and g > 0.0):
            raise ValidationError(f"sweep: G must be finite and positive, got {g:g}")
    for name, values in (("G", g_list), ("N", n_list)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"sweep: {name}={repeated[0]:g} is repeated")
    cells = []
    for g in g_list:
        for n in n_list:
            lam_inv = analytic.f_of_n(n) / g
            if lam_inv < 1.0:
                raise ValidationError(
                    f"sweep: G={g} at N={n} implies lambda_inv={lam_inv:.3f} < 1"
                )
            cells.append((g, n, lam_inv))

    analyses = {n: effective_reports(build_chain(ChainSpec(n, 1.0))) for n in n_list}
    rows = []
    for g, n, lam_inv in cells:
        hams = build_chain(ChainSpec(n_sites=n, lambda_inv=lam_inv))
        analysis = replace(analyses[n], lam=hams.spec.lam)
        grid = unit_window(hams, analysis, n_steps, name=f"sweep: G={g:g}")
        rows.append(SweepCell(g, n, lam_inv, _end_leakage(hams, grid)))

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
    resolvent's corner element <2|Qtilde|N-1> (the corner of the
    interior-block inverse) and the measured delta of the full dynamics,
    over the default window of the same chain without coupling noise, all
    in units of k; the corner, an inverse energy, is read over k.
    """
    if trials < 1:
        raise ValidationError("trials: must be >= 1")
    if n_sites % 2 != 0:
        raise ValidationError("n_sites: fluctuation trials are defined for even chains")
    noise_free = ChainSpec(n_sites=n_sites, lambda_inv=lambda_inv, k=k).in_units_of_k()
    # the window's phase check covers every trial: 20% bond noise keeps
    # max|eta| below 2.4 max|H_total| of the noise-free chain, inside its bound
    grid = default_time_grid(build_chain(noise_free), n_steps)

    def one_trial(offset: int) -> FluctuationTrial:
        noise = CouplingFluctuation(amplitude, seed + offset)
        hams = build_chain(replace(noise_free, fluctuation=noise))
        corner = from_units_of_k(-inverse_corner_tridiag(interior_block(hams.h_watch)), k, -1)
        return FluctuationTrial(offset, corner, _end_leakage(hams, grid))

    return [one_trial(offset) for offset in range(trials)]
