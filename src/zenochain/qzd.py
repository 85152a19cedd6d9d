"""Order classification of the constrained (watched) dynamics.

Given the strong/weak split (H_watch, H_weak) and an initial state that the
watch annihilates, the dynamics inside the zero-eigenvalue subspace of
H_watch is generated, order by order, by the effective Hamiltonians of the
perturbation module. The classification names the lowest order whose
effective Hamiltonian actually moves the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssumptionViolationError, UnsupportedConfigurationError, ValidationError
from .linalg import SymTridiagMatrix, check_state, eigvals_sym_tridiag, eigvecs_sym_tridiag
from .perturbation import (
    DEFAULT_GROUPING_RTOL,
    EffectiveHamiltonianReport,
    LevelGrouping,
    couple_zero_level,
    default_grouping_tolerance,
    group_eigenvalues,
    hqzd_order0,
    hqzd_order1,
)

# Unused here, but perfbench/spans.py BINDINGS patches these names on this module.
from .linalg import eig_sym_tridiag  # noqa: F401
from .perturbation import group_levels, reduced_resolvent  # noqa: F401

if TYPE_CHECKING:
    from .dynamics import LeakageReport


class QzdOrder(str, Enum):
    NO_DYNAMICS = "no_dynamics"
    ZEROTH = "zeroth"
    FIRST = "first"
    HIGHER_OR_NONE = "higher_or_none"


@dataclass(frozen=True)
class QzdClassification:
    """Outcome of the order classification for one (H_watch, H_weak, psi0)."""

    watch_annihilates_initial: bool
    zero_level_dimension: int
    order: QzdOrder
    prerequisite_i: bool
    commutator_norm_order0: float
    commutator_norm_order1: float
    notes: str


@dataclass(frozen=True)
class PrerequisiteIIResult:
    """Peak-leakage acceptance check: passed iff delta < delta_threshold."""

    delta: float
    delta_threshold: float
    passed: bool
    attained_at: float


@dataclass(frozen=True, eq=False)
class WatchAnalysis:
    """Everything the watch spectrum fixes for one chain, computed once.

    ``levels`` groups the eigenvalues of H_watch (no eigenvectors are
    kept); ``zero_basis`` (N x d0) spans its zero level (N x 0 without
    one); ``order0`` and ``order1`` are the effective Hamiltonians of H_weak
    there, None without a zero level. ``tol`` is the relative tolerance and
    ``lam`` the coupling ratio the order-1 term carries.
    """

    h_watch: SymTridiagMatrix
    h_weak: SymTridiagMatrix
    tol: float
    lam: float
    levels: LevelGrouping
    zero_basis: np.ndarray
    order0: EffectiveHamiltonianReport | None
    order1: EffectiveHamiltonianReport | None

    def classify(self, psi0: np.ndarray) -> QzdClassification:
        """The order decision of ``classify`` for this watch and psi0."""
        psi0 = check_state(psi0, self.h_watch.size, "psi0")

        residual = float(np.linalg.norm(self.h_watch.matvec(psi0)))
        if residual > self.tol * self.h_watch.max_abs_entry():
            raise AssumptionViolationError(
                f"H_watch does not annihilate psi0 (|H_w psi0| = {residual:.3e}); "
                "the watched-subspace framework does not apply"
            )

        dim0 = self.zero_basis.shape[1]
        if dim0 < 2:
            notes = (
                "zero level is one-dimensional; no room for a transition"
                if dim0
                else "watch spectrum has no zero level at the grouping tolerance"
            )
            return QzdClassification(
                watch_annihilates_initial=True,
                zero_level_dimension=dim0,
                order=QzdOrder.NO_DYNAMICS,
                prerequisite_i=False,
                commutator_norm_order0=0.0,
                commutator_norm_order1=0.0,
                notes=notes,
            )

        # V0 is an isometry, so Frobenius norms of the d0 x d0 blocks and of
        # their commutators with |a><a|, a = V0^T psi0, equal the N x N ones
        a = self.zero_basis.T @ psi0
        rho0 = np.outer(a, a.conj())
        reps = (self.order0, self.order1)
        comms = [float(np.linalg.norm(r.block @ rho0 - rho0 @ r.block)) for r in reps]
        # each order's scale bounds its block: ||H_weak|| for order 0 and
        # lam ||H_weak||^2 / min |eta != 0| for order 1 (Frobenius norms); a
        # commutator at or below tol times its scale is round-off, reported as 0.0
        weak = self.h_weak.frobenius_norm()
        eta = np.delete(self.levels.eigenvalues, self.levels.zero_level_index)
        scales = (weak, self.lam * weak**2 / np.min(np.abs(eta), initial=np.inf))
        comm0, comm1 = (c if c > self.tol * s else 0.0 for c, s in zip(comms, scales))
        proportional = self.order0.eta1_common is not None
        prerequisite_i = proportional and comm1 > 0.0

        if comm0 > 0.0:
            order = QzdOrder.ZEROTH
            notes = "order-0 effective Hamiltonian moves the initial state"
        elif prerequisite_i:
            order = QzdOrder.FIRST
            notes = "order-0 term is proportional to P0; order-1 moves the initial state"
        else:
            order = QzdOrder.HIGHER_OR_NONE
            if not proportional:
                # psi0 commutes with a non-trivial order-0 term, i.e. it sits in
                # an eigenstate of it; every order then commutes as well.
                notes = (
                    "order-0 term is not proportional to P0 yet commutes with the "
                    "initial state (initial state is one of its eigenstates); "
                    "no dynamics at any order"
                )
            else:
                notes = (
                    "order-0 and order-1 terms both commute with the initial "
                    "state; any dynamics is of second order or beyond"
                )

        return QzdClassification(
            watch_annihilates_initial=True,
            zero_level_dimension=dim0,
            order=order,
            prerequisite_i=prerequisite_i,
            commutator_norm_order0=comm0,
            commutator_norm_order1=comm1,
            notes=notes,
        )

    def cycle(self, order: QzdOrder) -> float:
        """2 pi over the smallest nonzero level gap of ``order``'s block.

        The block is ``order0``'s (zeroth) or ``order1``'s (first); levels at
        most tol times its largest |level| apart count as one. Other orders,
        and a block of one level, raise UnsupportedConfigurationError.
        """
        rep = {QzdOrder.ZEROTH: self.order0, QzdOrder.FIRST: self.order1}.get(order)
        e = np.linalg.eigvalsh(rep.block) if rep is not None else np.zeros(1)
        gaps = np.diff(e)
        gaps = gaps[gaps > self.tol * np.max(np.abs(e))]
        if not gaps.size:
            raise UnsupportedConfigurationError(
                f"{order.value} order has no effective cycle to set the default "
                "window; give an explicit t_max (--t-max)"
            )
        return float(2.0 * np.pi / np.min(gaps))


def analyze_watch(
    h_watch: SymTridiagMatrix,
    h_weak: SymTridiagMatrix,
    lam: float = 1.0,
    tol: float = DEFAULT_GROUPING_RTOL,
) -> WatchAnalysis:
    """The watch's levels, zero basis and both effective Hamiltonians.

    One eigenvalue solve of H_watch and its grouping; eigenvectors of the
    zero level only, H_weak V0 once for both blocks, and one bordered solve
    for the order-1 block. No N x N array is formed.
    """
    w = eigvals_sym_tridiag(h_watch)
    levels = group_eigenvalues(w, default_grouping_tolerance(w, tol))
    if not levels.has_zero_level:
        return WatchAnalysis(
            h_watch, h_weak, tol, lam, levels, np.zeros((h_watch.size, 0)), None, None
        )
    lo, hi = levels.bounds[levels.zero_level_index : levels.zero_level_index + 2]
    coupling = couple_zero_level(eigvecs_sym_tridiag(h_watch, lo, hi), h_weak)
    rep0, rep1 = hqzd_order0(coupling), hqzd_order1(coupling, h_watch, lam)
    return WatchAnalysis(h_watch, h_weak, tol, lam, levels, coupling.basis, rep0, rep1)


def classify(
    h_watch: SymTridiagMatrix,
    h_weak: SymTridiagMatrix,
    psi0: np.ndarray,
    tol: float = DEFAULT_GROUPING_RTOL,
    lam: float = 1.0,
) -> QzdClassification:
    """Classify the order of the constrained dynamics.

    Decision tree: no zero level or dim P0 < 2 -> no_dynamics; the order-0
    effective Hamiltonian fails to commute with |psi0><psi0| -> zeroth;
    otherwise, if it is proportional to P0 (its ``eta1_common`` is set) and
    the order-1 effective Hamiltonian fails to commute -> first; otherwise
    higher_or_none.

    ``tol`` governs the grouping and the two commutator tests only:
    eigenvalues group at tol times the largest |eigenvalue| of H_watch, and
    a commutator counts as nonvanishing when its Frobenius norm exceeds tol
    times its order's scale, ||H_weak|| for order 0 and
    lam ||H_weak||^2 / min |eta != 0| for order 1; one that does not is
    reported as 0.0. Proportionality to P0 is the one test of
    ``hqzd_order0``, relative to the norm of H_weak.
    """
    return analyze_watch(h_watch, h_weak, lam, tol).classify(psi0)


def check_prerequisite_ii(report: LeakageReport, delta0: float) -> PrerequisiteIIResult:
    """Check the peak leakage against the acceptance threshold delta0."""
    if not 0.0 < delta0 < 1.0:
        raise ValidationError("delta0: must lie in (0, 1)")
    return PrerequisiteIIResult(
        delta=report.delta,
        delta_threshold=delta0,
        passed=report.delta < delta0,
        attained_at=report.attained_at,
    )
