"""Degenerate perturbation machinery for the watched chains.

Groups the watch Hamiltonian's spectrum into degenerate levels, kept as
arrays (level objects and dense eigenprojectors are built only on request),
forms the reduced resolvent, and assembles the order-0 and order-1
effective Hamiltonians

    H_eff0 = P0 H P0,
    H_eff1 = P0 H Qtilde H P0 (per unit lam),
    Qtilde = sum_{n != 0} P_n / (-eta_n),

each formed as a d0 x d0 block in an orthonormal basis V0 (N x d0) of the
zero level and expanded to the N x N site basis only on request, so the
dynamics module can evolve under it directly. The order-1 block needs
Qtilde only on the d0 columns of H V0, which one bordered tridiagonal solve
gives without any eigenvector of a nonzero level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, UnsupportedConfigurationError, ValidationError
from .linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    orthonormal_columns,
    solve_bordered_tridiag,
)

GROUPING_RTOL = 1e-8
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
class LevelGrouping:
    """Degenerate levels of an ascending spectrum, sorted by eigenvalue.

    Level i has the mean eigenvalue ``eigenvalues[i]`` and the members
    ``bounds[i]:bounds[i + 1]`` of the spectrum; ``zero_level_index`` is the
    level within the grouping tolerance of zero, if any.
    """

    eigenvalues: np.ndarray
    bounds: np.ndarray
    grouping_tolerance: float
    zero_level_index: int | None

    @property
    def has_zero_level(self) -> bool:
        return self.zero_level_index is not None


@dataclass(frozen=True, eq=False)
class ProjectorSet(LevelGrouping):
    """A ``LevelGrouping`` with the eigenvector columns of every level.

    Level i has the eigenvector columns ``vectors[:, bounds[i]:bounds[i + 1]]``;
    level objects are built on request.
    """

    vectors: np.ndarray

    def _level(self, i: int) -> DegenerateLevel:
        lo, hi = int(self.bounds[i]), int(self.bounds[i + 1])
        members = tuple(range(lo, hi))
        return DegenerateLevel(float(self.eigenvalues[i]), members, self.vectors[:, lo:hi])

    @property
    def levels(self) -> tuple[DegenerateLevel, ...]:
        return tuple(self._level(i) for i in range(self.eigenvalues.size))

    @property
    def zero_level(self) -> DegenerateLevel:
        if self.zero_level_index is None:
            raise ValidationError("projector set has no zero level")
        return self._level(self.zero_level_index)

    def nonzero_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero levels' eigenvector columns and one eigenvalue per column."""
        counts = np.diff(self.bounds)
        keep = np.repeat(np.arange(counts.size) != self.zero_level_index, counts)
        return self.vectors[:, keep], np.repeat(self.eigenvalues, counts)[keep]


def default_grouping_tolerance(eigenvalues: np.ndarray) -> float:
    """GROUPING_RTOL times the spectrum's largest |eigenvalue|: the grouping rule.

    An all-zero spectrum falls back to GROUPING_RTOL itself; any positive
    tolerance groups it the same way.
    """
    scale = float(np.max(np.abs(eigenvalues), initial=0.0))
    return GROUPING_RTOL * scale if scale > 0.0 else GROUPING_RTOL


def group_eigenvalues(w: np.ndarray, tol: float) -> LevelGrouping:
    """Cluster numerically equal ascending eigenvalues into degenerate levels.

    Adjacent eigenvalues closer than ``tol`` join the same level. Raises
    ClusteringError when chained merging produces a cluster wider than
    ``tol`` (two groupings would then be defensible), listing the gaps.
    """
    if tol <= 0.0:
        raise ValidationError("tol: must be positive")
    bounds = np.concatenate(([0], np.nonzero(np.diff(w) > tol)[0] + 1, [w.size]))
    if np.any(w[bounds[1:] - 1] - w[bounds[:-1]] > tol):
        gaps = ", ".join(f"{g:.3e}" for g in np.diff(w))
        raise ClusteringError(
            f"ambiguous eigenvalue clustering at tol={tol:.3e}; gaps: [{gaps}]"
        )
    means = np.add.reduceat(w, bounds[:-1]) / np.diff(bounds)
    nearest = int(np.argmin(np.abs(means)))
    zero_index = nearest if abs(means[nearest]) < tol else None
    return LevelGrouping(means, bounds, tol, zero_index)


def group_levels(d: SpectralDecomposition, tol: float) -> ProjectorSet:
    """``group_eigenvalues`` of d's spectrum, with d's eigenvectors attached."""
    return ProjectorSet(**vars(group_eigenvalues(d.eigenvalues, tol)), vectors=d.eigenvectors)


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonianReport:
    """An effective Hamiltonian of one perturbative order (``hqzd_order0`` or ``hqzd_order1``).

    ``block`` is the d0 x d0 matrix in the zero-level basis ``basis`` (N x d0).
    ``eta1_common`` is set (order 0 only) when the block is a multiple c * 1
    of the identity, i.e. the matrix is c * P0; c is then the common
    first-order shift.
    """

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


@dataclass(frozen=True, eq=False)
class ZeroLevelCoupling:
    """A perturbation H acting on a zero-level basis V0, formed once.

    ``basis`` is V0 (N x d0, checked orthonormal), ``h_basis`` is H V0
    (N x d0), ``block`` is V0^T H V0 (not symmetrised) and ``h_norm`` the
    Frobenius norm of H.
    """

    basis: np.ndarray
    h_basis: np.ndarray
    block: np.ndarray
    h_norm: float


def couple_zero_level(v0: np.ndarray, h: np.ndarray | SymTridiagMatrix) -> ZeroLevelCoupling:
    """Check V0 and form H V0, for both effective Hamiltonians.

    A SymTridiagMatrix H is applied in O(N d0); no dense N x N H is formed.
    """
    if isinstance(h, SymTridiagMatrix):
        v0 = orthonormal_columns(v0, h.size, "v0")
        hv0, h_norm = h.matvec(v0), h.frobenius_norm()
    else:
        v0 = orthonormal_columns(v0, h.shape[0], "v0")
        hv0, h_norm = h @ v0, float(np.linalg.norm(h))
    return ZeroLevelCoupling(v0, hv0, v0.T @ hv0, h_norm)


def hqzd_order0(coupling: ZeroLevelCoupling) -> EffectiveHamiltonianReport:
    """Order-0 effective Hamiltonian P0 H P0, as the block V0^T H V0.

    It counts as c * P0 when ||V0^T H V0 - c 1|| <= PROPORTIONALITY_RTOL * ||H||
    (Frobenius norms), so the test is the same at every energy scale.
    """
    block = _symmetric(coupling.block)
    dim0 = block.shape[0]
    eta1_common: float | None = None
    if dim0:
        c = float(np.trace(block)) / dim0
        if np.linalg.norm(block - c * np.eye(dim0)) <= PROPORTIONALITY_RTOL * coupling.h_norm:
            eta1_common = c
    return EffectiveHamiltonianReport(block, coupling.basis, eta1_common)


def reduced_resolvent(ps: ProjectorSet) -> np.ndarray:
    """Qtilde = sum over nonzero levels of P_n / (-eta_n), as a dense N x N matrix.

    Formed as one product V diag(-1/eta) V^T of the nonzero eigenvector
    columns. Annihilates the zero level; on the interior sites it equals
    minus the inverse of the watch matrix's interior block.
    """
    if not ps.has_zero_level:
        raise ValidationError("reduced resolvent requires a zero level")
    v, eta = ps.nonzero_spectrum()
    return (v * (-1.0 / eta)) @ v.T


def hqzd_order1(
    coupling: ZeroLevelCoupling, h_watch: SymTridiagMatrix
) -> EffectiveHamiltonianReport:
    """Order-1 effective Hamiltonian P0 H Qtilde H P0, per unit lam.

    With b = (1 - V0 V0^T) H V0, Qtilde H V0 = -x for x = sum_{eta != 0}
    u u^T b / eta, the solution of the bordered system [[H_watch, V0],
    [V0^T, 0]] [x; y] = [b; 0] (``solve_bordered_tridiag``). The block is
    -b^T x: O(N d0^2) once the zero level is known, and no eigenvector
    of a nonzero level is needed. V0 must span H_watch's zero level.
    """
    v0 = coupling.basis
    b = coupling.h_basis - v0 @ coupling.block
    x = solve_bordered_tridiag(h_watch, v0, b)
    return EffectiveHamiltonianReport(_symmetric(-(b.T @ x)), v0)


@dataclass(frozen=True, eq=False)
class FirstOrderCorrections:
    """First-order eigenstate corrections of (H_watch + lam * H).

    ``states`` holds the nondegenerate nonzero levels in ascending order,
    then the two ``zero_basis`` columns, which must diagonalize the order-1
    effective Hamiltonian inside the two-fold zero level. Column s of
    ``corrections`` is the correction of state s; ``eta0`` (0 for the two
    zero states) and ``eta1`` are their unperturbed energies and first-order
    shifts, and ``zero_eta2`` the second-order shifts of the two zero states.
    """

    states: np.ndarray
    corrections: np.ndarray
    eta0: np.ndarray
    eta1: np.ndarray
    zero_eta2: np.ndarray


def first_order_corrections(
    ps: ProjectorSet, h: np.ndarray, zero_basis: np.ndarray
) -> FirstOrderCorrections:
    """First-order corrections |phi_s^(1)> for every eigenstate.

    For a state s: sum_m |m> <m|H|s> / (eta_s - eta_m) over the states m of
    the other levels (the two zero states are one level), so every
    correction is orthogonal to its own unperturbed state.
    """
    if not ps.has_zero_level or ps.zero_level.multiplicity != 2:
        raise UnsupportedConfigurationError(
            "first-order corrections require a two-fold degenerate zero level"
        )
    if np.any(np.delete(np.diff(ps.bounds), ps.zero_level_index) != 1):
        raise UnsupportedConfigurationError(
            "nonzero levels must be nondegenerate for eigenstate corrections"
        )

    n_sites = ps.vectors.shape[0]
    basis = orthonormal_columns(zero_basis, n_sites, "zero_basis")
    if basis.shape[1] != 2:
        raise ValidationError(f"zero_basis: expected shape {(n_sites, 2)}")
    v0 = ps.zero_level.vectors
    if np.linalg.norm(v0 @ (v0.T @ basis) - basis) > 1e-10:
        raise ValidationError("zero_basis: columns must span the zero level")

    outer, outer_eta0 = ps.nonzero_spectrum()
    states = np.column_stack([outer, basis])
    eta0 = np.append(outer_eta0, [0.0, 0.0])

    h_ss = states.T @ h @ states            # <m|H|s>
    gaps = eta0[None, :] - eta0[:, None]    # eta_s - eta_m at [m, s]
    gaps[-2:, -2:] = np.inf                 # no term within the zero level
    np.fill_diagonal(gaps, np.inf)          # nor from the state itself

    return FirstOrderCorrections(
        states=states,
        corrections=states @ (h_ss / gaps),
        eta0=eta0,
        eta1=np.diag(h_ss).copy(),
        zero_eta2=(-1.0 / outer_eta0) @ h_ss[:-2, -2:] ** 2,
    )
