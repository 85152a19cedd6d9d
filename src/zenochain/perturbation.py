"""Degenerate perturbation machinery for the watched chains.

Groups the watch Hamiltonian's spectrum into degenerate levels, each kept as
its block of eigenvectors (the dense eigenprojector is built only on
request), forms the reduced resolvent, and assembles the order-0 and
order-1 effective Hamiltonians

    H_eff0 = P0 H P0,
    lam * H_eff1 = lam * P0 H Qtilde H P0,
    Qtilde = sum_{n != 0} P_n / (-eta_n),

each formed as a d0 x d0 block in an orthonormal basis V0 (N x d0) of the
zero level and expanded to the N x N site basis only on request, so the
dynamics module can evolve under it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, UnsupportedConfigurationError, ValidationError
from .linalg import SpectralDecomposition, orthonormal_columns

DEFAULT_GROUPING_RTOL = 1e-8
PROPORTIONALITY_RTOL = 1e-10


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

    def nonzero_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero levels' stacked eigenvector blocks and one eigenvalue per column."""
        nonzero = self.nonzero_levels()
        v = np.hstack([self.levels[0].vectors[:, :0], *(lvl.vectors for lvl in nonzero)])
        return v, np.array([lvl.eigenvalue for lvl in nonzero for _ in lvl.member_indices])


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

    ``block`` is the d0 x d0 matrix in the zero-level basis ``basis`` (N x d0).
    ``eta1_common`` is set (order 0 only) when the block is a multiple c * 1
    of the identity, i.e. the matrix is c * P0; c is then the common
    first-order shift.
    """

    order: int
    block: np.ndarray
    basis: np.ndarray
    eta1_common: float | None = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix in the site basis, built on each call."""
        return self.basis @ self.block @ self.basis.T


def _symmetric(block: np.ndarray) -> np.ndarray:
    """The block with its round-off asymmetry removed.

    An odd chain's order-1 block is pure round-off, asymmetric at its own
    scale; symmetrised, every ``matrix`` passes ``eig_sym_dense`` exactly.
    """
    return 0.5 * (block + block.T)


def hqzd_order0(v0: np.ndarray, h: np.ndarray) -> EffectiveHamiltonianReport:
    """Order-0 effective Hamiltonian P0 H P0, as the block V0^T H V0.

    It counts as c * P0 when ||V0^T H V0 - c 1|| <= PROPORTIONALITY_RTOL * ||H||
    (Frobenius norms), so the test is the same at every energy scale.
    """
    v0 = orthonormal_columns(v0, h.shape[0], "v0")
    block = _symmetric(v0.T @ h @ v0)
    dim0 = block.shape[0]
    eta1_common: float | None = None
    if dim0:
        c = float(np.trace(block)) / dim0
        dev = np.linalg.norm(block - c * np.eye(dim0))
        if dev <= PROPORTIONALITY_RTOL * float(np.linalg.norm(h)):
            eta1_common = c
    return EffectiveHamiltonianReport(0, block, v0, eta1_common)


def reduced_resolvent(ps: ProjectorSet) -> np.ndarray:
    """Qtilde = sum over nonzero levels of P_n / (-eta_n).

    Formed as one product V diag(-1/eta) V^T of the stacked nonzero
    eigenvector blocks. Annihilates the zero level; on the interior sites it
    equals minus the inverse of the watch matrix's interior block.
    """
    if not ps.has_zero_level:
        raise ValidationError("reduced resolvent requires a zero level")
    v, eta = ps.nonzero_spectrum()
    return (v * (-1.0 / eta)) @ v.T


def hqzd_order1(
    v0: np.ndarray, h: np.ndarray, qtilde: np.ndarray, lam: float
) -> EffectiveHamiltonianReport:
    """Order-1 effective Hamiltonian lam * P0 H Qtilde H P0.

    Formed as the block lam * (H V0)^T Qtilde (H V0).
    """
    v0 = orthonormal_columns(v0, h.shape[0], "v0")
    hv0 = h @ v0
    return EffectiveHamiltonianReport(1, _symmetric(lam * (hv0.T @ qtilde @ hv0)), v0)


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

    basis = orthonormal_columns(zero_basis, d.size, "zero_basis")
    if basis.shape[1] != 2:
        raise ValidationError(f"zero_basis: expected shape {(d.size, 2)}")
    v0 = ps.zero_level.vectors
    if np.linalg.norm(v0 @ (v0.T @ basis) - basis) > 1e-10:
        raise ValidationError("zero_basis: columns must span the zero level")

    states, eta0 = ps.nonzero_spectrum()

    h_outer_zero = states.T @ h @ basis      # <n|H|b_a>, shape (n_outer, 2)
    h_outer_outer = states.T @ h @ states    # <m|H|n>

    zero_corr = states @ (h_outer_zero / (-eta0[:, None]))
    zero_eta1 = np.einsum("ia,ij,ja->a", basis, h, basis)
    zero_eta2 = np.einsum("na,n,na->a", h_outer_zero, -1.0 / eta0, h_outer_zero)

    gaps = eta0[None, :] - eta0[:, None]    # eta_n - eta_m at [m, n]
    np.fill_diagonal(gaps, np.inf)          # no m = n term
    outer_corr = states @ (h_outer_outer / gaps) + basis @ (h_outer_zero / eta0[:, None]).T

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
