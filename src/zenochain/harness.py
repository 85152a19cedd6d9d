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
from .chain import ChainHamiltonians, ChainSpec, CouplingFluctuation, build_chain
from .dynamics import (
    DEFAULT_N_STEPS,
    EvolutionTrace,
    LeakageReport,
    Observation,
    TimeGrid,
    leakage_trace,
    observe,
    peak_report,
    site_one,
)
from .errors import NumericalFailureError, ValidationError
from .linalg import eig_sym_tridiag
from .perturbation import EffectiveHamiltonianReport, hqzd_order1
from .qzd import QzdClassification, QzdOrder, WatchAnalysis, analyze_watch, from_units_of_k

# Unused here, but perfbench/spans.py BINDINGS patches these names on this module.
from .dynamics import measure_leakage, simulate  # noqa: F401
from .perturbation import group_levels, hqzd_order0, reduced_resolvent  # noqa: F401
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
    h_total spectrum, in units of k, equal field for field to the unit
    chain's; ``leakage`` is its peak sample dated on ``grid``, the window at
    k. ``trace``, every site's population at every ``grid`` time, is the
    observation's trace (``leakage_trace``) labelled with ``grid``, built on
    first read and then kept; k enters none of its phases. At d0 = 3 (columns
    |1>, interior zero mode, |N>) its ``mid_overlap`` is the observation's
    ``watched`` row 1, the interior mode's population.
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
        watched = self.observation.watched
        mid = watched[1] if len(watched) == 3 else None
        return replace(leakage_trace(self.observation), grid=self.grid, mid_overlap=mid)


def effective_reports(hams: ChainHamiltonians) -> WatchAnalysis:
    """The chain's watch analysis, solved in units of k (``hams.unit``) and read at k."""
    unit = hams.unit
    try:
        return analyze_watch(unit.h_watch, unit.h_weak, unit.spec.lam, hams.spec.k)
    except NumericalFailureError as exc:
        if not unit.spec.is_modified:
            raise
        # the shift lam delta_omega / k is what the solves could not take
        raise ValidationError(
            f"delta_omega: the watch analysis fails at lam * delta_omega / k = "
            f"{unit.h_watch.diag[1]:g} ({exc})"
        ) from exc


def _classified(hams: ChainHamiltonians) -> tuple[WatchAnalysis, QzdClassification]:
    """The chain's watch analysis (``effective_reports``) and the class of |1>,
    which the chain order theorem fixes by d0: first for 2, zeroth for 3. A
    shifted chain whose deciding commutator the shift puts at round-off
    raises a ValidationError naming delta_omega."""
    analysis = effective_reports(hams)
    c = analysis.classify(site_one(hams.spec.n_sites))
    theorem = QzdOrder.FIRST if c.zero_level_dimension == 2 else QzdOrder.ZEROTH
    if hams.spec.is_modified and c.order is not theorem:
        raise ValidationError(
            f"delta_omega: at lam * delta_omega / k = {hams.unit.h_watch.diag[1]:g} the "
            f"{theorem.value}-order commutator of |1> lies at round-off"
        )
    return analysis, c


def unit_window(unit: ChainHamiltonians, t_max: float, n_steps: int, name: str) -> TimeGrid:
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
    analysis, classification = _classified(hams)
    if grid is None:
        window = unit_window(hams.unit, analysis.cycle(classification.order), n_steps, "lambda_inv")
        grid = TimeGrid(from_units_of_k(window.t_max, hams.spec.k, -1), n_steps)
    else:
        window = unit_window(hams.unit, grid.t_max * hams.spec.k, n_steps, "t_max")
    return analysis, classification, window, grid


def _observe(hams: ChainHamiltonians, basis: np.ndarray, window: TimeGrid) -> Observation:
    """|1> under h_total over k, watched on ``basis`` over ``window`` (units of 1/k)."""
    return observe(eig_sym_tridiag(hams.unit.h_total), site_one(hams.spec.n_sites), basis, window)


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
    obs = _observe(hams, analysis.zero_basis, window)
    return ScenarioResult(
        hams=hams,
        grid=grid,
        leakage=peak_report(obs.series, grid),
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
        if not np.issubdtype(type(n), np.integer) or n < 4 or n % 2 != 0:
            raise ValidationError(f"sweep: N={n:g} must be an even integer >= 4")
    for name, values in (("G", g_list), ("N", n_list)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"sweep: {name}={repeated[0]:g} is repeated")
    g_values, n_values = np.array(g_list, dtype=float), np.array(n_list)
    # in Python floats, a subnormal G gives f(N) / G = inf without a warning
    lambda_inv = np.array([[analytic.f_of_n(n) / float(g) for n in n_list] for g in g_list])
    specs = {}
    for (i, j), lam_inv in np.ndenumerate(lambda_inv):
        try:
            specs[i, j] = ChainSpec(n_list[j], float(lam_inv))
        except ValidationError:
            cell = f"G={g_list[i]:g} at N={n_list[j]:g} implies lambda_inv={lam_inv:g}"
            raise ValidationError(f"sweep: {cell}, outside a chain's range") from None

    analyses = [effective_reports(build_chain(ChainSpec(n, 1.0))) for n in n_list]
    orders = [a.classify(site_one(n)).order for a, n in zip(analyses, n_list)]
    delta = np.empty_like(lambda_inv)
    for (i, j), spec in specs.items():
        hams = build_chain(spec)
        t_max = replace(analyses[j], lam=hams.spec.lam).cycle(orders[j])
        grid = unit_window(hams, t_max, n_steps, f"sweep: G={g_list[i]:g}")
        delta[i, j] = _observe(hams, analyses[j].zero_basis, grid).peak.delta

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
    trial j seeds its generator with seed + j and gives <2|Qtilde|N-1>, the
    (1, N) entry per k^2 of its own watch's order-1 block (read over k), and
    the delta of the full dynamics in units of k, on the zero basis {|1>, |N>}
    and over the default window of one watch analysis of the chain without
    coupling noise.
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
        # every even chain's zero basis is {|1>, |N>}: its watch has zero rows there
        corner = hqzd_order1(analysis.zero_basis, hams.h_weak, hams.h_watch).block[0, 1]
        corner_element[j] = from_units_of_k(corner, k, -1)
        delta[j] = _observe(hams, analysis.zero_basis, grid).peak.delta
    return corner_element, delta
