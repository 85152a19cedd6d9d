"""Degenerate perturbation machinery for the watched chains.

Assembles the order-0 and order-1 effective Hamiltonians of the watch
Hamiltonian's zero level

    H_eff0 = P0 H P0,
    H_eff1 = P0 H Qtilde H P0 (per unit lam),
    Qtilde = sum_{n != 0} P_n / (-eta_n),

each formed as a d0 x d0 block in an orthonormal basis V0 (N x d0) of the
zero level and expanded to the N x N site basis only on request. Both take
V0 and the tridiagonal perturbation H and form H V0 in O(N d0). The order-1
block needs Qtilde only on the d0 columns of H V0, which one bordered
tridiagonal solve gives without any eigenvector of a nonzero level, and
the watch analysis (``qzd.analyze_watch``) finds the zero level and V0 in
one pass over the watch's irreducible blocks, with no level grouping and,
like ``hqzd_order0``'s c * P0 test, no fitted tolerance.

Level grouping (``group_levels``, ``ProjectorSet``, ``DegenerateLevel``) and
the dense ``reduced_resolvent`` are test referees: no program path calls
them, and they stay for the benchmark's bindings (``perfbench/spans.py``).
The tests group at ``tests/oracles.py``'s ``default_grouping_tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, ValidationError
from .linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    orthonormal_columns,
    solve_bordered_tridiag,
)


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
    """Degenerate levels of an ascending spectrum with their eigenvector columns.

    Level i has the mean eigenvalue ``eigenvalues[i]``, the members
    ``bounds[i]:bounds[i + 1]`` of the spectrum and the eigenvector columns
    ``vectors[:, bounds[i]:bounds[i + 1]]``; ``zero_level_index`` is the
    level within the grouping tolerance of zero, if any. Level objects are
    built on request.
    """

    eigenvalues: np.ndarray
    bounds: np.ndarray
    grouping_tolerance: float
    zero_level_index: int | None
    vectors: np.ndarray

    @property
    def has_zero_level(self) -> bool:
        return self.zero_level_index is not None

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


def group_levels(d: SpectralDecomposition, tol: float) -> ProjectorSet:
    """Cluster d's numerically equal ascending eigenvalues into degenerate levels.

    Adjacent eigenvalues closer than ``tol`` join the same level. Raises
    ClusteringError when chained merging produces a cluster wider than
    ``tol`` (two groupings would then be defensible), listing the gaps.
    """
    if tol <= 0.0:
        raise ValidationError("tol: must be positive")
    w = d.eigenvalues
    bounds = np.concatenate(([0], np.nonzero(np.diff(w) > tol)[0] + 1, [w.size]))
    if np.any(w[bounds[1:] - 1] - w[bounds[:-1]] > tol):
        gaps = ", ".join(f"{g:.3e}" for g in np.diff(w))
        raise ClusteringError(
            f"ambiguous eigenvalue clustering at tol={tol:.3e}; gaps: [{gaps}]"
        )
    means = np.add.reduceat(w, bounds[:-1]) / np.diff(bounds)
    nearest = int(np.argmin(np.abs(means)))
    zero_index = nearest if abs(means[nearest]) < tol else None
    return ProjectorSet(means, bounds, tol, zero_index, d.eigenvectors)


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonianReport:
    """An effective Hamiltonian of one perturbative order (``hqzd_order0`` or ``hqzd_order1``).

    ``block`` is the d0 x d0 matrix in the zero-level basis ``basis`` (N x d0).
    ``eta1_common`` is set (order 0 only) when the block is a multiple c * 1
    of the identity, i.e. the matrix is c * P0; c is then the common
    first-order shift. ``round_off`` is the block's round-off floor, N eps
    times its scale: a value of either matrix, or a commutator with it, at or
    below the floor is zero (0 lists every nonzero entry).
    """

    block: np.ndarray
    basis: np.ndarray
    eta1_common: float | None = None
    round_off: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix in the site basis, built on each call."""
        return self.basis @ self.block @ self.basis.T


def _symmetric(block: np.ndarray) -> np.ndarray:
    """The block with its round-off asymmetry removed.

    An odd chain's order-1 block is pure round-off, asymmetric at its own
    scale. The CLI lists the upper triangle of V0 B V0^T, on the rows of V0
    that can carry an entry, and ``cycle`` takes ``eigvalsh`` of the block,
    which reads one triangle; symmetrised, neither leaves part of it unread.
    """
    return 0.5 * (block + block.T)


def hqzd_order0(v0: np.ndarray, h: SymTridiagMatrix) -> EffectiveHamiltonianReport:
    """Order-0 effective Hamiltonian P0 H P0, as the block V0^T H V0.

    ``v0`` (N x d0) is an orthonormal basis of the zero level. The block's
    round-off floor is N eps ||H|| (Frobenius norm; every zero test's
    round-off rule, the same at any energy scale), and the block counts as
    c * P0 when ||V0^T H V0 - c 1|| lies at or below it.
    """
    v0 = orthonormal_columns(v0, h.size, "v0")
    block = _symmetric(v0.T @ h.matvec(v0))
    round_off = h.size * np.finfo(float).eps * h.frobenius_norm()
    eta1_common: float | None = None
    if block.size:
        c = float(np.trace(block)) / len(block)
        if np.linalg.norm(block - c * np.eye(len(block))) <= round_off:
            eta1_common = c
    return EffectiveHamiltonianReport(block, v0, eta1_common, round_off)


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
    v0: np.ndarray, h: SymTridiagMatrix, h_watch: SymTridiagMatrix
) -> EffectiveHamiltonianReport:
    """Order-1 effective Hamiltonian P0 H Qtilde H P0, per unit lam.

    With b = (1 - V0 V0^T) H V0, Qtilde H V0 = -x for x = sum_{eta != 0}
    u u^T b / eta, the solution of the bordered system [[H_watch, V0],
    [V0^T, 0]] [x; y] = [b; 0] (``solve_bordered_tridiag``). The block is
    -b^T x: O(N d0^2) once the zero level is known, and no eigenvector
    of a nonzero level is needed. V0 must span H_watch's zero level. The
    floor, which needs H_watch's gap, is left 0 (``analyze_watch`` sets it).
    """
    v0 = orthonormal_columns(v0, h.size, "v0")
    hv0 = h.matvec(v0)
    b = hv0 - v0 @ (v0.T @ hv0)
    x = solve_bordered_tridiag(h_watch, v0, b)
    return EffectiveHamiltonianReport(_symmetric(-(b.T @ x)), v0)
