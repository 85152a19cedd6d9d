"""Degenerate perturbation machinery for the watched chains.

Groups the watch Hamiltonian's spectrum into degenerate levels, each kept as
its block of eigenvectors (the dense eigenprojector is built only on
request), forms the reduced resolvent, and assembles the order-0 and
order-1 effective Hamiltonians

    H_eff0 = P0 H P0,
    lam * H_eff1 = lam * P0 H Qtilde H P0,
    Qtilde = sum_{n != 0} P_n / (-eta_n),

all expressed in the full N-dimensional site basis so the dynamics module
can evolve under them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, UnsupportedConfigurationError, ValidationError
from .linalg import SpectralDecomposition

DEFAULT_GROUPING_RTOL = 1e-8
PROPORTIONALITY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class DegenerateLevel:
    """One (possibly degenerate) eigenvalue with its N x m eigenvector block."""

    eigenvalue: float
    member_indices: tuple[int, ...]
    vectors: np.ndarray

    @property
    def multiplicity(self) -> int:
        return len(self.member_indices)

    @property
    def projector(self) -> np.ndarray:
        """The dense N x N eigenprojector, built on each call."""
        return self.vectors @ self.vectors.T


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Degenerate levels of a spectral decomposition, sorted by eigenvalue."""

    levels: tuple[DegenerateLevel, ...]
    grouping_tolerance: float
    zero_level_index: int | None

    @property
    def has_zero_level(self) -> bool:
        return self.zero_level_index is not None

    @property
    def zero_level(self) -> DegenerateLevel:
        if self.zero_level_index is None:
            raise ValidationError("projector set has no zero level")
        return self.levels[self.zero_level_index]

    def nonzero_levels(self) -> tuple[DegenerateLevel, ...]:
        return tuple(
            lvl for i, lvl in enumerate(self.levels) if i != self.zero_level_index
        )


def default_grouping_tolerance(
    d: SpectralDecomposition, rtol: float = DEFAULT_GROUPING_RTOL
) -> float:
    """rtol times the spectrum's largest |eigenvalue|: the one grouping rule.

    An all-zero spectrum falls back to rtol itself; any positive tolerance
    groups it the same way.
    """
    scale = float(np.max(np.abs(d.eigenvalues))) if d.size else 0.0
    return rtol * scale if scale > 0.0 else rtol


def group_levels(d: SpectralDecomposition, tol: float) -> ProjectorSet:
    """Cluster numerically equal eigenvalues into degenerate levels.

    Adjacent eigenvalues closer than ``tol`` join the same level. Raises
    ClusteringError when chained merging produces a cluster wider than
    ``tol`` (two groupings would then be defensible), listing the gaps.
    """
    if tol <= 0.0:
        raise ValidationError("tol: must be positive")
    w = d.eigenvalues
    splits = np.nonzero(np.diff(w) > tol)[0] + 1
    groups = np.split(np.arange(d.size), splits)

    for idx in groups:
        if w[idx[-1]] - w[idx[0]] > tol:
            gaps = ", ".join(f"{g:.3e}" for g in np.diff(w))
            raise ClusteringError(
                f"ambiguous eigenvalue clustering at tol={tol:.3e}; gaps: [{gaps}]"
            )

    levels = [
        DegenerateLevel(
            float(np.mean(w[idx])), tuple(int(i) for i in idx), d.eigenvectors[:, idx]
        )
        for idx in groups
    ]
    zero_index: int | None = None
    candidates = [i for i, lvl in enumerate(levels) if abs(lvl.eigenvalue) < tol]
    if candidates:
        zero_index = min(candidates, key=lambda i: abs(levels[i].eigenvalue))
    return ProjectorSet(tuple(levels), tol, zero_index)


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonianReport:
    """An effective Hamiltonian of a given perturbative order.

    ``eta1_common`` is set (order 0 only) when the matrix is a multiple
    c * P0 of the zero projector; c is then the common first-order shift.
    """

    order: int
    matrix: np.ndarray
    eta1_common: float | None = None


def hqzd_order0(p0: np.ndarray, h: np.ndarray) -> EffectiveHamiltonianReport:
    """Order-0 effective Hamiltonian P0 H P0."""
    m = p0 @ h @ p0
    trace_p0 = float(np.trace(p0))
    eta1_common: float | None = None
    if trace_p0 > 0.0:
        c = float(np.trace(m)) / trace_p0
        dev = np.linalg.norm(m - c * p0)
        if dev <= PROPORTIONALITY_ATOL * max(1.0, float(np.linalg.norm(m))):
            eta1_common = c
    return EffectiveHamiltonianReport(0, m, eta1_common)


def reduced_resolvent(ps: ProjectorSet) -> np.ndarray:
    """Qtilde = sum over nonzero levels of P_n / (-eta_n).

    Formed as one product V diag(-1/eta) V^T of the stacked nonzero
    eigenvector blocks. Annihilates the zero level; on the interior sites it
    equals minus the inverse of the watch matrix's interior block.
    """
    if not ps.has_zero_level:
        raise ValidationError("reduced resolvent requires a zero level")
    nonzero = ps.nonzero_levels()
    v = np.hstack([ps.zero_level.vectors[:, :0], *(lvl.vectors for lvl in nonzero)])
    w = np.array([-1.0 / lvl.eigenvalue for lvl in nonzero for _ in lvl.member_indices])
    return (v * w) @ v.T


def hqzd_order1(
    p0: np.ndarray, h: np.ndarray, qtilde: np.ndarray, lam: float
) -> EffectiveHamiltonianReport:
    """Order-1 effective Hamiltonian lam * P0 H Qtilde H P0."""
    hp0 = h @ p0
    return EffectiveHamiltonianReport(1, lam * (hp0.T @ qtilde @ hp0))


@dataclass(frozen=True, eq=False)
class FirstOrderCorrections:
    """First-order eigenstate corrections of (H_watch + lam * H).

    The zero level must be exactly two-dimensional and ``zero_basis`` must
    diagonalize the order-1 effective Hamiltonian inside it. ``outer_*``
    arrays cover the nondegenerate nonzero levels in ascending order.
    Corrections are stored as columns aligned with their unperturbed states.
    """

    zero_basis: np.ndarray
    zero_corrections: np.ndarray
    zero_eta1: np.ndarray
    zero_eta2: np.ndarray
    outer_states: np.ndarray
    outer_eta0: np.ndarray
    outer_eta1: np.ndarray
    outer_corrections: np.ndarray


def first_order_corrections(
    d: SpectralDecomposition,
    ps: ProjectorSet,
    h: np.ndarray,
    zero_basis: np.ndarray,
) -> FirstOrderCorrections:
    """First-order corrections |phi_s^(1)> for every eigenstate.

    For a nonzero state n:   sum_{m != n} |m> <m|H|n> / (eta_n - eta_m),
    for a zero-basis state:  sum_{n != 0} |n> <n|H|b> / (0 - eta_n),
    so every correction is orthogonal to its own unperturbed state.
    """
    if not ps.has_zero_level or ps.zero_level.multiplicity != 2:
        raise UnsupportedConfigurationError(
            "first-order corrections require a two-fold degenerate zero level"
        )
    for lvl in ps.nonzero_levels():
        if lvl.multiplicity != 1:
            raise UnsupportedConfigurationError(
                "nonzero levels must be nondegenerate for eigenstate corrections"
            )

    basis = np.asarray(zero_basis, dtype=float)
    if basis.shape != (d.size, 2):
        raise ValidationError(f"zero_basis: expected shape {(d.size, 2)}")
    if np.linalg.norm(basis.T @ basis - np.eye(2)) > 1e-10:
        raise ValidationError("zero_basis: columns must be orthonormal")
    v0 = ps.zero_level.vectors
    if np.linalg.norm(v0 @ (v0.T @ basis) - basis) > 1e-10:
        raise ValidationError("zero_basis: columns must span the zero level")

    outer = ps.nonzero_levels()
    eta0 = np.array([lvl.eigenvalue for lvl in outer])
    states = np.column_stack(
        [d.eigenvectors[:, lvl.member_indices[0]] for lvl in outer]
    ) if outer else np.zeros((d.size, 0))

    h_outer_zero = states.T @ h @ basis      # <n|H|b_a>, shape (n_outer, 2)
    h_outer_outer = states.T @ h @ states    # <m|H|n>

    zero_corr = states @ (h_outer_zero / (-eta0[:, None]))
    zero_eta1 = np.einsum("ia,ij,ja->a", basis, h, basis)
    zero_eta2 = np.einsum("na,n,na->a", h_outer_zero, -1.0 / eta0, h_outer_zero)

    n_outer = len(outer)
    outer_corr = np.zeros((d.size, n_outer))
    for j in range(n_outer):
        weights = np.zeros(n_outer)
        others = np.arange(n_outer) != j
        weights[others] = h_outer_outer[others, j] / (eta0[j] - eta0[others])
        outer_corr[:, j] = states @ weights + basis @ (h_outer_zero[j] / eta0[j])

    return FirstOrderCorrections(
        zero_basis=basis,
        zero_corrections=zero_corr,
        zero_eta1=zero_eta1,
        zero_eta2=zero_eta2,
        outer_states=states,
        outer_eta0=eta0,
        outer_eta1=np.diag(h_outer_outer).copy(),
        outer_corrections=outer_corr,
    )
