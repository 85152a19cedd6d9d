"""Exact time evolution, population traces, and leakage measurement.

Evolution is spectral (no time-step error beyond the eigensolver). The
leakage at time t is the population outside the watched zero-level subspace,
1 - ||V^T psi(t)||^2 for an orthonormal basis V of that subspace; its
maximum over the observation window is delta. ``leakage_series`` computes it
from the d0 watched amplitudes alone; the full N-site states, and with them
every site's population, are built only for a trace (``simulate``,
``leakage_trace``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainHamiltonians
from .errors import NumericalFailureError, ValidationError
from .linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    TimeGrid,
    check_state,
    eig_sym_tridiag,
    evolve_grid,
    grid_phase_factors,
    orthonormal_columns,
    overlaps,
)
from .qzd import WatchAnalysis, analyze_watch, from_units_of_k

DEFAULT_N_STEPS = 4000


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Per-time site populations and watched-subspace bookkeeping.

    ``populations[j]`` is the length-N array |<i|psi(t_j)>|^2; ``leakage``
    is the population outside the watched subspace. ``mid_overlap`` tracks
    |<phi_mid|psi(t)>|^2 when a mid state was supplied.
    """

    grid: TimeGrid
    populations: np.ndarray
    leakage: np.ndarray
    mid_overlap: np.ndarray | None = None


@dataclass(frozen=True)
class LeakageReport:
    """Largest leakage over the window and the first time attaining it."""

    delta: float
    attained_at: float


def site_one(n_sites: int) -> np.ndarray:
    """The state |1>: the whole population on the first site."""
    psi0 = np.zeros(n_sites)
    psi0[0] = 1.0
    return psi0


def simulate(
    h: SymTridiagMatrix,
    psi0: np.ndarray,
    grid: TimeGrid,
    basis: np.ndarray,
    mid_state: np.ndarray | None = None,
) -> EvolutionTrace:
    """Evolve psi0 under the tridiagonal h across the grid and record populations.

    ``basis`` (N x d, orthonormal columns) spans the watched subspace whose
    population sets the leakage.
    """
    d = eig_sym_tridiag(h)
    return leakage_trace(d, psi0, grid, leakage_series(d, psi0, basis, grid), mid_state)


def leakage_trace(
    d: SpectralDecomposition,
    psi0: np.ndarray,
    grid: TimeGrid,
    leakage: np.ndarray,
    mid_state: np.ndarray | None = None,
) -> EvolutionTrace:
    """The trace of psi0 under ``d`` around a leakage series already computed
    for it (``leakage_series`` of the same state and grid)."""
    states = evolve_grid(d, psi0, grid)
    populations = np.abs(states.T) ** 2

    mid_overlap = None
    if mid_state is not None:
        mid_state = check_state(mid_state, d.size, "mid_state")
        mid_overlap = np.abs(mid_state.conj() @ states) ** 2

    return EvolutionTrace(grid, populations, leakage, mid_overlap)


def leakage_series(
    d: SpectralDecomposition,
    psi0: np.ndarray,
    basis: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """The leakage of ``simulate`` at every grid time, without the states.

    Watched amplitude a is sum_n w[a, n] exp(-i eta_n t) with
    w[a, n] = <b_a|n><n|psi0>. With each phase factored into a coarse and a
    fine part (``grid_phase_factors``), every amplitude over the grid is one
    product (coarse * w_a) @ fine; neither the states nor an N x (steps+1)
    phase table is built.
    """
    psi0 = check_state(psi0, d.size, "psi0")
    basis = orthonormal_columns(basis, d.size, "basis")
    u, eta = d.eigenvectors, d.eigenvalues
    w = (basis.T @ u) * overlaps(u, psi0)  # d0 x N

    coarse, fine = grid_phase_factors(eta, grid)  # ceil(T/B) x N, N x B
    amps = (w[:, None, :] * coarse).reshape(-1, d.size) @ fine
    amps = amps.reshape(basis.shape[1], -1)[:, : grid.n_steps + 1]
    # strip float dust so leakage stays a population in [0, 1]
    return np.clip(1.0 - np.sum(np.abs(amps) ** 2, axis=0), 0.0, 1.0)


def peak_report(leakage: np.ndarray, grid: TimeGrid) -> LeakageReport:
    """delta = max of a leakage series; attained_at is its first sample."""
    i = int(np.argmax(leakage))
    return LeakageReport(delta=float(leakage[i]), attained_at=float(grid.times[i]))


def measure_leakage(trace: EvolutionTrace) -> LeakageReport:
    """delta = max leakage over the grid; attained_at is its first sample."""
    return peak_report(trace.leakage, trace.grid)


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
    if not d0:
        raise ValidationError("chain watch matrix has no zero level")
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


def default_time_grid(hams: ChainHamiltonians, n_steps: int = DEFAULT_N_STEPS) -> TimeGrid:
    """One cycle of the dynamics that moves |1>: ``WatchAnalysis.cycle`` of its order.

    That is pi / (lam k) on unshifted even chains, pi sqrt(N-1) / k on
    unshifted odd ones and pi |delta_omega| / k^2 on shifted odd ones.
    """
    analysis = effective_reports(hams)
    order = analysis.classify(site_one(hams.spec.n_sites)).order
    window = unit_window(hams.unit, analysis.cycle(order), n_steps)
    return TimeGrid(from_units_of_k(window.t_max, hams.spec.k, -1), n_steps)
