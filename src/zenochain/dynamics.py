"""Exact time evolution, population traces, and leakage measurement.

Evolution is spectral (no time-step error beyond the eigensolver): the state
at every grid time is assembled from the eigendecomposition at once. The
leakage at time t is the population outside the watched zero-level subspace,
1 - ||V^T psi(t)||^2 for an orthonormal basis V of that subspace; its
maximum over the observation window is delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainHamiltonians
from .errors import UnsupportedConfigurationError, ValidationError
from .linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    eig_sym_dense,
    eig_sym_tridiag,
    evolve_grid,
)
from .perturbation import FirstOrderCorrections

DEFAULT_N_STEPS = 4000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps intervals covering [0, t_max]."""

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.t_max > 0.0:
            raise ValidationError("t_max: must be positive")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValidationError("n_steps: must be a positive integer")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Per-time site populations and watched-subspace bookkeeping.

    ``populations[j]`` is the length-N array |<i|psi(t_j)>|^2; ``leakage``
    is 1 - subspace_population. ``mid_overlap`` tracks |<phi_mid|psi(t)>|^2
    when a mid state was supplied.
    """

    grid: TimeGrid
    populations: np.ndarray
    subspace_population: np.ndarray
    leakage: np.ndarray
    mid_overlap: np.ndarray | None = None


@dataclass(frozen=True)
class LeakageReport:
    """Largest leakage over the window and the first time attaining it."""

    delta: float
    attained_at: float
    t_max: float
    n_steps: int


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
    states = evolve_grid(d, psi0, grid.times)

    populations = np.abs(states.T) ** 2
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != d.size:
        raise ValidationError("basis: row count does not match the state")
    if np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) > 1e-10:
        raise ValidationError("basis: columns must be orthonormal")
    subspace = np.sum(np.abs(basis.T @ states) ** 2, axis=0)
    # strip float dust so leakage stays a population in [0, 1]
    leakage = np.clip(1.0 - subspace, 0.0, 1.0)

    mid_overlap = None
    if mid_state is not None:
        mid_state = np.asarray(mid_state)
        if mid_state.shape != (d.size,):
            raise ValidationError("mid_state: dimension does not match the state")
        mid_overlap = np.abs(mid_state.conj() @ states) ** 2

    return EvolutionTrace(grid, populations, subspace, leakage, mid_overlap)


def measure_leakage(trace: EvolutionTrace) -> LeakageReport:
    """delta = max leakage over the grid; attained_at is its first sample."""
    i = int(np.argmax(trace.leakage))
    return LeakageReport(
        delta=float(trace.leakage[i]),
        attained_at=float(trace.grid.times[i]),
        t_max=trace.grid.t_max,
        n_steps=trace.grid.n_steps,
    )


def default_time_grid(hams: ChainHamiltonians, n_steps: int = DEFAULT_N_STEPS) -> TimeGrid:
    """One full cycle of the leading constrained dynamics.

    Even chains: t_max = pi / (lam * k), the end-to-end oscillation period.
    Odd chains with an on-site shift: t_max = pi * delta_omega / k^2 (the
    end-to-end rate is k^2/delta_omega). Unmodified odd chains: one cycle of
    the three-state ladder through the mid zero mode, pi * sqrt(N-1) / k.
    """
    spec = hams.spec
    if spec.n_sites % 2 == 0:
        t_max = np.pi * spec.lambda_inv / spec.k
    elif spec.is_modified:
        t_max = np.pi * abs(spec.delta_omega) / spec.k**2
    else:
        t_max = np.pi * np.sqrt(spec.n_sites - 1) / spec.k
    return TimeGrid(float(t_max), n_steps)


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
        psi0 = np.zeros(d_watch.size)
        psi0[0] = 1.0
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (d_watch.size,):
        raise ValidationError("psi0: dimension does not match the decomposition")

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

    c = base.T @ psi0   # <s0|psi0>
    dcoef = corr.T @ psi0   # <s1|psi0>
    mixed = corr * c[None, :] + base * dcoef[None, :]
    phases = np.exp(-1j * np.outer(eta, tau_grid.times))
    series = lam * (mixed @ phases)
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
    overlaps = [abs(sym @ v[:, i]) for i in pair]
    alpha = pair[int(np.argmax(overlaps))]
    beta = pair[1 - int(np.argmax(overlaps))]

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
