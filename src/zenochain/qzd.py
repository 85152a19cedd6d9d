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

import numpy as np

from .dynamics import LeakageReport
from .errors import AssumptionViolationError, ValidationError
from .linalg import SymTridiagMatrix, eig_sym_tridiag
from .perturbation import (
    DEFAULT_GROUPING_RTOL,
    EffectiveHamiltonianReport,
    ProjectorSet,
    default_grouping_tolerance,
    group_levels,
    hqzd_order0,
    hqzd_order1,
    reduced_resolvent,
)


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


def _comm_norm(m: np.ndarray, rho: np.ndarray) -> float:
    c = m @ rho - rho @ m
    return float(np.linalg.norm(c))


@dataclass(frozen=True, eq=False)
class WatchAnalysis:
    """Everything the watch spectrum fixes for one chain, computed once.

    ``zero_basis`` (N x d0) spans the zero level of H_watch (N x 0 without
    one); ``order0`` and ``order1`` are the effective Hamiltonians of H_weak
    there, None without a zero level. ``tol`` is the relative tolerance.
    """

    h_watch: SymTridiagMatrix
    h_weak: SymTridiagMatrix
    tol: float
    levels: ProjectorSet
    zero_basis: np.ndarray
    order0: EffectiveHamiltonianReport | None
    order1: EffectiveHamiltonianReport | None

    def classify(self, psi0: np.ndarray) -> QzdClassification:
        """The order decision of ``classify`` for this watch and psi0."""
        psi0 = np.asarray(psi0, dtype=complex)
        if psi0.shape != (self.h_watch.size,):
            raise ValidationError("psi0: dimension does not match the chain")
        if abs(np.linalg.norm(psi0) - 1.0) > 1e-12:
            raise ValidationError("psi0: must have unit norm")

        residual = float(np.linalg.norm(self.h_watch.matvec(psi0)))
        if residual > self.tol * self.h_watch.max_abs_entry():
            raise AssumptionViolationError(
                f"H_watch does not annihilate psi0 (|H_w psi0| = {residual:.3e}); "
                "the watched-subspace framework does not apply"
            )

        dim0 = self.zero_basis.shape[1]
        if dim0 < 2:
            return QzdClassification(
                watch_annihilates_initial=True,
                zero_level_dimension=dim0,
                order=QzdOrder.NO_DYNAMICS,
                prerequisite_i=False,
                commutator_norm_order0=0.0,
                commutator_norm_order1=0.0,
                notes="zero level is one-dimensional; no room for a transition"
                if dim0
                else "watch spectrum has no zero level at the grouping tolerance",
            )

        tol = self.tol
        rep0, rep1 = self.order0, self.order1
        rho0 = np.outer(psi0, psi0.conj())
        comm0 = _comm_norm(rep0.matrix, rho0)
        norm0 = float(np.linalg.norm(rep0.matrix))
        comm1 = _comm_norm(rep1.matrix, rho0)
        norm1 = float(np.linalg.norm(rep1.matrix))

        weak_scale = float(np.linalg.norm(self.h_weak.to_dense()))
        c = float(np.trace(rep0.matrix)) / dim0
        p0 = self.levels.zero_level.projector
        deviation = float(np.linalg.norm(rep0.matrix - c * p0))
        proportional = deviation < tol * max(weak_scale, 1e-300)
        comm1_nonzero = norm1 > 0.0 and comm1 > tol * norm1
        prerequisite_i = proportional and comm1_nonzero

        if norm0 > 0.0 and comm0 > tol * norm0:
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


def analyze_watch(
    h_watch: SymTridiagMatrix,
    h_weak: SymTridiagMatrix,
    lam: float = 1.0,
    tol: float = DEFAULT_GROUPING_RTOL,
) -> WatchAnalysis:
    """One eigensolve and grouping of H_watch, then both effective Hamiltonians."""
    d = eig_sym_tridiag(h_watch)
    ps = group_levels(d, default_grouping_tolerance(d, tol))
    if not ps.has_zero_level:
        return WatchAnalysis(h_watch, h_weak, tol, ps, d.eigenvectors[:, :0], None, None)
    p0 = ps.zero_level.projector
    h = h_weak.to_dense()
    rep1 = hqzd_order1(p0, h, reduced_resolvent(ps), lam)
    return WatchAnalysis(
        h_watch, h_weak, tol, ps, ps.zero_level.vectors, hqzd_order0(p0, h), rep1
    )


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
    otherwise, if it is proportional to P0 and the order-1 effective
    Hamiltonian fails to commute -> first; otherwise higher_or_none.

    Eigenvalues group at tol times the largest |eigenvalue| of H_watch.
    Commutators count as nonvanishing when their Frobenius norm exceeds
    tol times the norm of the effective matrix; proportionality to P0 is
    tested against tol times the norm of H_weak.
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
