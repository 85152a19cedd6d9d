"""Scenario runners: single simulations, the G-sweep, and fluctuation trials.

Sweep and Monte Carlo cells are pure computations with their own seeded
generators, run one after another.
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
    Observation,
    TimeGrid,
    leakage_trace,
    observe,
    site_one,
)
from .errors import NumericalFailureError, ValidationError
from .linalg import eig_sym_tridiag, inverse_corner_tridiag
from .perturbation import EffectiveHamiltonianReport
from .qzd import QzdClassification, WatchAnalysis, analyze_watch, from_units_of_k

# Unused here, but perfbench/spans.py BINDINGS patches these names on this module.
from .dynamics import measure_leakage, simulate  # noqa: F401
from .perturbation import group_levels, hqzd_order0, hqzd_order1, reduced_resolvent  # noqa: F401
from .qzd import classify  # noqa: F401

# A mean delta at or below this is round-off of ``observe``'s series, not
# leakage. Where the true delta is below eps (G <= 1e-9), the computed one
# is 1 minus a watched norm off by a few ulps: at most about 11 eps on
# chains of 4 to 200 sites, at 200 and 4000 steps. G = 1e-7 already gives
# 185 to 215 eps there. 64 eps lies between the two, so no G whose delta
# is noise enters the fit.
DELTA_FIT_FLOOR = 64 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Everything a single-chain run produces, read from units of k.

    ``observation`` is the watch of |1> on ``zero_basis`` under the one
    h_total spectrum, in units of k; its peak is ``leakage``. ``trace``,
    every site's population at every ``grid`` time, is the observation's
    trace (``leakage_trace``) labelled with ``grid``, built on first read
    and then kept; k enters none of its phases.
    """

    hams: ChainHamiltonians
    grid: TimeGrid
    leakage: LeakageReport
    observation: Observation
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
        return replace(leakage_trace(self.observation, mid), grid=self.grid)


def effective_reports(hams: ChainHamiltonians) -> WatchAnalysis:
    """The chain's watch analysis, solved in units of k (``hams.unit``) and read at k."""
    unit = hams.unit
    try:
        analysis = analyze_watch(unit.h_watch, unit.h_weak, unit.spec.lam, hams.spec.k)
    except NumericalFailureError as exc:
        if not unit.spec.is_modified:
            raise
        # the shift lam delta_omega / k is what the solves could not take
        raise ValidationError(
            f"delta_omega: the watch analysis fails at lam * delta_omega / k = "
            f"{unit.h_watch.diag[1]:g} ({exc})"
        ) from exc
    d0 = analysis.zero_basis.shape[1]
    # the two ends and at most one zero mode of the interior block, whose
    # eigenvalues are simple: more means the zero-level tolerance took in
    # interior levels next to a large shift
    if unit.spec.is_modified and d0 > 3:
        raise ValidationError(
            f"delta_omega: the zero level has {d0} > 3 dimensions at "
            f"lam * delta_omega / k = {unit.h_watch.diag[1]:g}"
        )
    return analysis


def unit_window(
    unit: ChainHamiltonians, t_max: float, n_steps: int, name: str = "lambda_inv"
) -> TimeGrid:
    """The grid over [0, t_max] in units of 1/k of a chain in units of k."""
    # its largest phase max|eta| t_max is at most 3 max|H_total| t_max
    if not math.isfinite(3.0 * unit.h_total.max_abs_entry() * t_max):
        raise ValidationError(
            f"{name}: the window's largest phase max|eta| t_max is not finite "
            f"(t_max = {t_max:g} in units of 1/k)"
        )
    return TimeGrid(t_max, n_steps)


def _window(hams: ChainHamiltonians, n_steps: int, grid: TimeGrid | None = None):
    """The watch analysis, the class of |1>, and the window in units of 1/k and
    at k: ``grid`` if given, else one cycle of the class's order (``WatchAnalysis.cycle``)."""
    analysis = effective_reports(hams)
    classification = analysis.classify(site_one(hams.spec.n_sites))
    if grid is None:
        window = unit_window(hams.unit, analysis.cycle(classification.order), n_steps)
        grid = TimeGrid(from_units_of_k(window.t_max, hams.spec.k, -1), n_steps)
    else:
        window = unit_window(hams.unit, grid.t_max * hams.spec.k, n_steps, "t_max")
    return analysis, classification, window, grid


def _observe(hams: ChainHamiltonians, basis: np.ndarray, window: TimeGrid, grid: TimeGrid):
    """|1> under h_total over k, watched on ``basis`` over ``window``, its peak dated at k."""
    d = eig_sym_tridiag(hams.unit.h_total)
    return observe(d, site_one(hams.spec.n_sites), basis, window, grid)


def run_scenario(
    spec: ChainSpec,
    n_steps: int = DEFAULT_N_STEPS,
    t_max: float | None = None,
) -> ScenarioResult:
    """Build the chain, classify it, and measure the leakage of |1> over [0, t_max].

    ``t_max`` is a time at k. Without it the window is one cycle of the
    classified order's effective dynamics (``WatchAnalysis.cycle``); a chain
    whose order has no cycle raises UnsupportedConfigurationError and needs
    an explicit ``t_max``.
    """
    # an explicit window is checked before any solve
    grid = None if t_max is None else TimeGrid(t_max, n_steps)
    hams = build_chain(spec)

    analysis, classification, window, grid = _window(hams, n_steps, grid)
    obs = _observe(hams, analysis.zero_basis, window, grid)
    return ScenarioResult(
        hams=hams,
        grid=grid,
        leakage=obs.peak,
        observation=obs,
        classification=classification,
        order0=analysis.order0,
        order1=analysis.order1,
        zero_basis=analysis.zero_basis,
    )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The G-sweep's leakage on its (G, N) grid plus the quadratic-law fit.

    ``lambda_inv`` and ``delta`` are G x N arrays, one row per G and one
    column per N; ``mean_delta`` and ``flatness`` (max |delta - mean| / mean,
    0 for a row of zeros) are per row.
    """

    g_values: np.ndarray
    n_values: np.ndarray
    lambda_inv: np.ndarray
    delta: np.ndarray
    mean_delta: np.ndarray
    flatness: np.ndarray
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


def run_sweep(
    g_list: list[float],
    n_list: list[int],
    n_steps: int = DEFAULT_N_STEPS,
) -> SweepResult:
    """Measure delta over a (G, N) grid with lam = G / f(N) per cell.

    An unshifted watch holds no lam, nor does the order that moves |1>, so each
    N is analysed and classified once; each cell watches that zero basis over
    the order's cycle at its own lam. The slope of mean delta against G^2 is
    fitted through the origin over the G values whose mean delta lies above
    the round-off floor ``DELTA_FIT_FLOOR`` and below the fit's validity limit.
    """
    if not g_list or not n_list:
        raise ValidationError("sweep: g_list and n_list must be non-empty")
    for g in g_list:
        if not (math.isfinite(g) and g > 0.0):
            raise ValidationError(f"sweep: G must be finite and positive, got {g:g}")
    for n in n_list:
        if n < 4 or n % 2 != 0:
            raise ValidationError(f"sweep: N={n:g} must be an even integer >= 4")
    for name, values in (("G", g_list), ("N", n_list)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"sweep: {name}={repeated[0]:g} is repeated")
    g_values, n_values = np.array(g_list, dtype=float), np.array(n_list)
    lambda_inv = np.array([analytic.f_of_n(n) for n in n_list]) / g_values[:, None]
    if np.any(lambda_inv < 1.0):
        i, j = np.argwhere(lambda_inv < 1.0)[0]
        raise ValidationError(
            f"sweep: G={g_list[i]} at N={n_list[j]} implies lambda_inv={lambda_inv[i, j]:.3f} < 1"
        )

    analyses = [effective_reports(build_chain(ChainSpec(n, 1.0))) for n in n_list]
    orders = [a.classify(site_one(n)).order for a, n in zip(analyses, n_list)]
    delta = np.empty_like(lambda_inv)
    for (i, j), lam_inv in np.ndenumerate(lambda_inv):
        hams = build_chain(ChainSpec(n_sites=n_list[j], lambda_inv=float(lam_inv)))
        t_max = replace(analyses[j], lam=hams.spec.lam).cycle(orders[j])
        grid = unit_window(hams, t_max, n_steps, f"sweep: G={g_list[i]:g}")
        delta[i, j] = _observe(hams, analyses[j].zero_basis, grid, grid).peak.delta

    mean_delta = delta.mean(axis=1)
    spread = np.max(np.abs(delta - mean_delta[:, None]), axis=1)
    # a G whose every delta is 0 has no spread to scale
    flatness = np.divide(spread, mean_delta, out=np.zeros_like(spread), where=mean_delta > 0.0)
    keep = (mean_delta > DELTA_FIT_FLOOR) & (mean_delta < analytic.DELTA_FIT_LIMIT)
    if not np.any(keep):
        raise ValidationError(
            f"sweep: no mean delta above the round-off floor {DELTA_FIT_FLOOR:.3g} "
            f"and below {analytic.DELTA_FIT_LIMIT}; nothing to fit"
        )
    slope = fit_slope_through_origin(g_values[keep] ** 2, mean_delta[keep])
    return SweepResult(g_values, n_values, lambda_inv, delta, mean_delta, flatness, slope)


def run_fluctuation_trials(
    n_sites: int,
    amplitude: float,
    trials: int,
    seed: int,
    lambda_inv: float = 20.0,
    k: float = 1.0,
    n_steps: int = DEFAULT_N_STEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo over chains with fluctuating interior couplings.

    Returns ``(corner_element, delta)``, two arrays of length ``trials``:
    trial j seeds its generator with seed + j and gives the reduced
    resolvent's corner element <2|Qtilde|N-1> (the corner of the
    interior-block inverse, read over k) and the delta of the full dynamics
    in units of k, on the zero basis {|1>, |N>} and over the default window
    of one watch analysis of the chain without coupling noise.
    """
    # an int or a numpy integer; a bool is neither to numpy
    if not np.issubdtype(type(trials), np.integer):
        raise ValidationError("trials: must be an integer")
    if trials < 1:
        raise ValidationError("trials: must be >= 1")
    if n_sites % 2 != 0:
        raise ValidationError("n_sites: fluctuation trials are defined for even chains")
    noise_free = build_chain(ChainSpec(n_sites, lambda_inv, k=k).in_units_of_k())
    # the window's phase check covers every trial: 20% bond noise keeps
    # max|eta| below 2.4 max|H_total| of the noise-free chain, inside its bound
    analysis, _, grid, _ = _window(noise_free, n_steps)

    corner_element, delta = np.empty(trials), np.empty(trials)
    for j in range(trials):
        noise = CouplingFluctuation(amplitude, seed + j)
        hams = build_chain(replace(noise_free.spec, fluctuation=noise))
        corner = -inverse_corner_tridiag(interior_block(hams.h_watch))
        corner_element[j] = from_units_of_k(corner, k, -1)
        delta[j] = _observe(hams, analysis.zero_basis, grid, grid).peak.delta
    return corner_element, delta
