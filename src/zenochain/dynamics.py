"""Exact time evolution, population traces, and leakage measurement.

Evolution is spectral (no time-step error beyond the eigensolver). The
leakage at time t is the population outside the watched zero-level subspace,
1 - ||V^T psi(t)||^2 for an orthonormal basis V of that subspace; its
maximum over the observation window is delta. ``leakage_series`` computes it
from the d0 watched amplitudes alone; the full N-site states, and with them
every site's population, are built only for a trace (``simulate``,
``evolve_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainHamiltonians
from .errors import UnsupportedConfigurationError, ValidationError
from .linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    check_state,
    eig_sym_dense,
    eig_sym_tridiag,
    evolve_grid,
    grid_phase_factors,
    orthonormal_columns,
    overlaps,
    phase_sums,
)
from .perturbation import FirstOrderCorrections
from .qzd import analyze_watch

DEFAULT_N_STEPS = 4000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps intervals covering [0, t_max]."""

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0 and np.isfinite(self.t_max)):
            raise ValidationError("t_max: must be finite and positive")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValidationError("n_steps: must be a positive integer")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


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
    t_max: float
    n_steps: int


def site_one(n_sites: int) -> np.ndarray:
    """The state |1>: the whole population on the first site."""
    psi0 = np.zeros(n_sites)
    psi0[0] = 1.0
    return psi0


def simulate(
    h: SymTridiagMatrix | np.ndarray,
    psi0: np.ndarray,
    grid: TimeGrid,
    basis: np.ndarray,
    mid_state: np.ndarray | None = None,
) -> EvolutionTrace:
    """Evolve psi0 under h across the grid and record populations.

    ``h`` may be tridiagonal (full chain) or dense (effective Hamiltonian);
    ``basis`` (N x d, orthonormal columns) spans the watched subspace whose
    population sets the leakage.
    """
    if isinstance(h, SymTridiagMatrix):
        d = eig_sym_tridiag(h)
    else:
        d = eig_sym_dense(np.asarray(h))
    return evolve_trace(d, psi0, grid, basis, mid_state)


def evolve_trace(
    d: SpectralDecomposition,
    psi0: np.ndarray,
    grid: TimeGrid,
    basis: np.ndarray,
    mid_state: np.ndarray | None = None,
) -> EvolutionTrace:
    """``simulate`` for a Hamiltonian already decomposed into ``d``."""
    states = evolve_grid(d, psi0, grid.times)

    populations = np.abs(states.T) ** 2
    basis = orthonormal_columns(basis, d.size, "basis")
    subspace = np.sum(np.abs(basis.T @ states) ** 2, axis=0)
    # strip float dust so leakage stays a population in [0, 1]
    leakage = np.clip(1.0 - subspace, 0.0, 1.0)

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

    times = grid.times
    coarse, fine = grid_phase_factors(eta, times)  # ceil(T/B) x N, N x B
    amps = (w[:, None, :] * coarse).reshape(-1, d.size) @ fine
    amps = amps.reshape(basis.shape[1], -1)[:, : times.size]
    return np.clip(1.0 - np.sum(np.abs(amps) ** 2, axis=0), 0.0, 1.0)


def peak_report(leakage: np.ndarray, grid: TimeGrid) -> LeakageReport:
    """delta = max of a leakage series; attained_at is its first sample."""
    i = int(np.argmax(leakage))
    return LeakageReport(
        delta=float(leakage[i]),
        attained_at=float(grid.times[i]),
        t_max=grid.t_max,
        n_steps=grid.n_steps,
    )


def measure_leakage(trace: EvolutionTrace) -> LeakageReport:
    """delta = max leakage over the grid; attained_at is its first sample."""
    return peak_report(trace.leakage, trace.grid)


def default_time_grid(hams: ChainHamiltonians, n_steps: int = DEFAULT_N_STEPS) -> TimeGrid:
    """One cycle of the dynamics that moves |1>: ``WatchAnalysis.cycle`` of its order.

    That is pi / (lam k) on unshifted even chains, pi sqrt(N-1) / k on
    unshifted odd ones and pi |delta_omega| / k^2 on shifted odd ones.
    """
    analysis = analyze_watch(hams.h_watch, hams.h_weak, hams.spec.lam)
    order = analysis.classify(site_one(hams.spec.n_sites)).order
    return TimeGrid(analysis.cycle(order), n_steps)


def u1_correction_trace(
    d_watch: SpectralDecomposition,
    corrections: FirstOrderCorrections,
    lam: float,
    tau_grid: TimeGrid,
    psi0: np.ndarray | None = None,
) -> np.ndarray:
    """Squared norm of the first-order propagator correction on psi0.

    The correction operator at rescaled time tau is
    lam * sum_s exp(-i eta_s tau) (|s1><s0| + |s0><s1|) over all eigenstates
    s with unperturbed vector |s0> and first-order correction |s1>; its peak
    on psi0 estimates the leakage delta. Zero-level phases carry their
    second-order eigenvalue shifts, the only surviving ones.
    """
    if psi0 is None:
        psi0 = site_one(d_watch.size)
    psi0 = check_state(psi0, d_watch.size, "psi0")

    base = np.concatenate(
        [corrections.outer_states, corrections.zero_basis], axis=1
    )
    corr = np.concatenate(
        [corrections.outer_corrections, corrections.zero_corrections], axis=1
    )
    eta = np.concatenate(
        [
            corrections.outer_eta0 + lam * corrections.outer_eta1,
            lam * corrections.zero_eta1 + lam**2 * corrections.zero_eta2,
        ]
    )

    c = overlaps(base, psi0)   # <s0|psi0>
    dcoef = overlaps(corr, psi0)   # <s1|psi0>
    times = tau_grid.times
    series = lam * (phase_sums(corr, eta, c, times) + phase_sums(base, eta, dcoef, times))
    return np.sum(np.abs(series) ** 2, axis=0)


def leakage_frequency_estimate(d_tot: SpectralDecomposition, n_sites: int) -> float:
    """Dominant angular frequency of the leakage oscillation, even chains.

    Taken from the exact spectrum of the full Hamiltonian: the gap between
    the lowest positive interior eigenvalue and the zero-level eigenvalue it
    beats against (the symmetric end combination when N/2 - 1 is odd, the
    antisymmetric one otherwise).
    """
    if n_sites % 2 != 0 or n_sites < 4:
        raise UnsupportedConfigurationError(
            "leakage frequency estimate is defined for even chains"
        )
    if d_tot.size != n_sites:
        raise ValidationError("decomposition size does not match n_sites")

    w, v = d_tot.eigenvalues, d_tot.eigenvectors
    # ascending spectrum: (N-2)/2 negatives, the split zero pair, positives
    pair = [n_sites // 2 - 1, n_sites // 2]
    sym = np.zeros(n_sites)
    sym[0] = sym[-1] = 1.0 / np.sqrt(2.0)
    sym_weights = [abs(sym @ v[:, i]) for i in pair]
    alpha = pair[int(np.argmax(sym_weights))]
    beta = pair[1 - int(np.argmax(sym_weights))]

    interior_plus = w[n_sites // 2 + 1]
    partner = alpha if (n_sites // 2 - 1) % 2 == 1 else beta
    return float(abs(interior_plus - w[partner]))


def dominant_angular_frequency(values: np.ndarray, dt: float) -> float:
    """Angular frequency of the strongest nonzero Fourier mode of a series."""
    values = np.asarray(values, dtype=float) - float(np.mean(values))
    spectrum = np.abs(np.fft.rfft(values))
    if spectrum.size < 2:
        raise ValidationError("series too short for a frequency estimate")
    k = 1 + int(np.argmax(spectrum[1:]))
    return 2.0 * np.pi * k / (dt * values.size)
