"""Exact time evolution, population traces, and leakage measurement.

Evolution is spectral (no time-step error beyond the eigensolver). The
leakage at time t is the population outside the watched zero-level subspace,
1 - ||V^T psi(t)||^2 for an orthonormal basis V of that subspace; its
maximum over the observation window is delta. ``observe`` computes it from
the d0 watched amplitudes alone, in one ``Observation`` with their weights,
the slow set and its margin; the N-site states are built only for a trace
(``simulate``, ``leakage_trace``), from the observation's own start state,
spectrum and window, so a trace's populations and leakage share one spectrum
and one grid. The window is set by the one window step of ``harness``, in
units of 1/k; ``default_time_grid`` returns it at k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainHamiltonians
from .linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    TimeGrid,
    check_state,
    eig_sym_tridiag,
    evolve_grid,
    grid_phase_factors,
    orthonormal_columns,
)

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


@dataclass(frozen=True, eq=False)
class Observation:
    """A start state psi0 under one spectrum, watched on a basis V0 (N x d0).
    Eigenvector n weighs ||V0^T u_n||^2; the weight margin is a report, not a check."""

    spectrum: SpectralDecomposition  # eta and U, in units of k on every program path
    psi0: np.ndarray  # the checked start state
    window: TimeGrid  # the times of series, in units of 1/k on every program path
    c: np.ndarray  # U^T psi0: float, with w, for a real psi0
    w: np.ndarray  # (V0^T U) * c, d0 x N: watched amplitude a is sum_n w[a, n] exp(-i eta_n t)
    slow: np.ndarray  # the d0 columns of largest weight, ascending; a tie goes to the lower index
    weight_margin: float  # the d0-th largest weight less the next one
    series: np.ndarray  # the leakage at every window time
    peak: LeakageReport


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
    return leakage_trace(observe(eig_sym_tridiag(h), psi0, basis, grid), mid_state)


def leakage_trace(obs: Observation, mid_state: np.ndarray | None = None) -> EvolutionTrace:
    """The trace of ``obs.psi0`` under ``obs.spectrum`` over ``obs.window``;
    its leakage is ``obs.series``."""
    d = obs.spectrum
    states = evolve_grid(d, obs.psi0, obs.window)
    populations = np.abs(states.T) ** 2

    mid_overlap = None
    if mid_state is not None:
        mid_state = check_state(mid_state, d.size, "mid_state")
        mid_overlap = np.abs(mid_state.conj() @ states) ** 2

    return EvolutionTrace(obs.window, populations, obs.series, mid_overlap)


def observe(
    d: SpectralDecomposition,
    psi0: np.ndarray,
    basis: np.ndarray,
    window: TimeGrid,
    grid: TimeGrid | None = None,
) -> Observation:
    """psi0 under ``d``, watched on ``basis`` over ``window``, its peak dated on
    ``grid`` (by default ``window``).

    With each phase factored into a coarse and a fine part
    (``grid_phase_factors``), every watched amplitude over the window is one
    product (coarse * w_a) @ fine; no state or N x (steps+1) table is built.
    """
    psi0 = check_state(psi0, d.size, "psi0")
    basis = orthonormal_columns(basis, d.size, "basis")
    u, c, d0 = d.eigenvectors, d.eigenvectors.T @ psi0, basis.shape[1]
    on_basis = basis.T @ u
    w = on_basis * c  # d0 x N
    # a zero weight past the last column ranks after every column, so a basis
    # of all N columns has its smallest weight as margin
    weight = np.append(np.sum(on_basis**2, axis=0), 0.0)
    rank = np.argsort(-weight, kind="stable")

    coarse, fine = grid_phase_factors(d.eigenvalues, window)  # ceil(T/B) x N, N x B
    amps = (w[:, None, :] * coarse).reshape(-1, d.size) @ fine
    amps = amps.reshape(d0, -1)[:, : window.n_steps + 1]
    # strip float dust so leakage stays a population in [0, 1]
    series = np.clip(1.0 - np.sum(np.abs(amps) ** 2, axis=0), 0.0, 1.0)
    margin = float(weight[rank[d0 - 1]] - weight[rank[d0]])
    peak = peak_report(series, grid or window)
    return Observation(d, psi0, window, c, w, np.sort(rank[:d0]), margin, series, peak)


def peak_report(leakage: np.ndarray, grid: TimeGrid) -> LeakageReport:
    """delta = max of a leakage series; attained_at is its first sample."""
    i = int(np.argmax(leakage))
    return LeakageReport(delta=float(leakage[i]), attained_at=float(grid.times[i]))


def measure_leakage(trace: EvolutionTrace) -> LeakageReport:
    """delta = max leakage over the grid; attained_at is its first sample."""
    return peak_report(trace.leakage, trace.grid)


def default_time_grid(hams: ChainHamiltonians, n_steps: int = DEFAULT_N_STEPS) -> TimeGrid:
    """``run_scenario``'s default window of the chain, at k, bit for bit."""
    # the benchmark's referee (perfbench/referee.py) samples this window;
    # harness imports this module, so the step is imported here
    from .harness import _window

    return _window(hams, n_steps)[3]
