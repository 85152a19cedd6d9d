"""Order classification of the constrained (watched) dynamics.

Given the strong/weak split (H_watch, H_weak) and an initial state that the
watch annihilates, the dynamics inside the zero-eigenvalue subspace of
H_watch is generated, order by order, by the effective Hamiltonians of the
perturbation module. The classification names the lowest order whose
effective Hamiltonian actually moves the initial state.

The zero level comes from the watch's irreducible blocks (``analyze_watch``),
and every zero test reads a value at or below N eps times its own scale as
round-off (N the watch's size; LAPACK Users' Guide section 4.7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AssumptionViolationError, ClusteringError, UnsupportedConfigurationError, ValidationError
)
from .linalg import SymTridiagMatrix, _eigvals_near_zero, _eigvec_at, check_state
from .perturbation import EffectiveHamiltonianReport, hqzd_order0, hqzd_order1

# Unused here, but perfbench/spans.py BINDINGS patches these names on this module.
from .linalg import eig_sym_tridiag  # noqa: F401
from .perturbation import group_levels, reduced_resolvent  # noqa: F401

if TYPE_CHECKING:
    from .dynamics import LeakageReport

_EPS = np.finfo(float).eps


def from_units_of_k(value, k: float, power: int = 1, floor: float = 0.0):
    """A float or array in units of k read back: times k (``power`` 1, an
    energy) or over k (-1, a time). Values at or below ``floor`` are round-off."""
    with np.errstate(over="ignore", under="ignore"):
        out = value * k if power == 1 else value / k
    # the read must not overflow, nor take a normal value above its round-off
    # floor below the normal range
    v, o, f = np.abs(value), np.abs(out), np.finfo(float)
    if not np.all((o <= f.max) & ((o >= f.tiny) | (v < f.tiny) | (v <= floor))):
        raise ValidationError(f"k: k = {k:g} reads an energy or time out of the double range")
    return out


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

    The solves see H_watch and H_weak in units of k. ``zero_basis`` (N x d0,
    d0 >= 1, columns in site order) spans the zero level of H_watch, whose
    floor ``tol`` = N eps ||H_watch|| decided membership; ``blocks`` are the
    effective Hamiltonians of H_weak there, order 1 per unit lam, each with
    its floor N eps times its scale: ||H_weak|| at order 0, ||H_weak||^2 /
    Delta at order 1 (Delta the smallest |eta| outside the zero level;
    Frobenius norms). Every zero test reads one of these floors. ``order0``,
    ``order1`` (block and floor) and the commutator norms of ``classify``
    read order n times k lam^n; ``cycle`` reads a time over lam^n (1/k).
    """

    h_watch: SymTridiagMatrix
    tol: float
    zero_basis: np.ndarray
    blocks: tuple[EffectiveHamiltonianReport, EffectiveHamiltonianReport]
    lam: float
    k: float

    def _energy(self, value, order: int):
        s = self.lam**order
        return from_units_of_k(s * value, self.k, 1, s * self.blocks[order].round_off)

    def _read(self, order: int) -> EffectiveHamiltonianReport:
        rep = self.blocks[order]
        common = None if rep.eta1_common is None else self._energy(rep.eta1_common, order)
        # a floor is round-off by definition: its read never raises
        with np.errstate(over="ignore", under="ignore"):
            floor = rep.round_off * self.lam**order * self.k
        block = self._energy(rep.block, order)
        return replace(rep, block=block, eta1_common=common, round_off=floor)

    @cached_property
    def order0(self) -> EffectiveHamiltonianReport:
        return self._read(0)

    @cached_property
    def order1(self) -> EffectiveHamiltonianReport:
        return self._read(1)

    def classify(self, psi0: np.ndarray) -> QzdClassification:
        """The order decision of ``classify`` for this watch and psi0."""
        psi0 = check_state(psi0, self.h_watch.size, "psi0")

        residual = float(np.linalg.norm(self.h_watch.matvec(psi0)))
        if residual > self.tol:
            raise AssumptionViolationError(
                f"H_watch does not annihilate psi0 (|H_w psi0| = {residual:.3e}); "
                "the watched-subspace framework does not apply"
            )

        dim0 = self.zero_basis.shape[1]
        # V0 is an isometry, so Frobenius norms of the d0 x d0 blocks and of
        # their commutators with |a><a|, a = V0^T psi0, equal the N x N ones
        # (at d0 = 1 both commutators are exactly 0)
        a = self.zero_basis.T @ psi0
        rho0 = np.outer(a, a.conj())
        comms = [float(np.linalg.norm(r.block @ rho0 - rho0 @ r.block)) for r in self.blocks]
        # for Hermitian B and unit a, ||[B, |a><a|]||_F = sqrt2 |(1 - |a><a|) B a|,
        # the couplings of a that the listings read: a commutator at or below
        # sqrt2 times its block's floor is round-off, reported as 0.0
        comm0, comm1 = (c if c > 2**0.5 * r.round_off else 0.0 for c, r in zip(comms, self.blocks))
        proportional = self.blocks[0].eta1_common is not None
        prerequisite_i = proportional and comm1 > 0.0

        if dim0 < 2:
            order = QzdOrder.NO_DYNAMICS
            notes = "zero level is one-dimensional; no room for a transition"
        elif comm0 > 0.0:
            order = QzdOrder.ZEROTH
            notes = "order-0 effective Hamiltonian moves the initial state"
        elif prerequisite_i:
            order = QzdOrder.FIRST
            notes = "order-0 term is proportional to P0; order-1 moves the initial state"
        else:
            # psi0 commuting with a non-trivial order-0 term sits in an
            # eigenstate of it; every order then commutes as well.
            order = QzdOrder.HIGHER_OR_NONE
            notes = (
                "order-0 and order-1 terms both commute with the initial "
                "state; any dynamics is of second order or beyond"
                if proportional
                else "order-0 term is not proportional to P0 yet commutes with the "
                "initial state (initial state is one of its eigenstates); "
                "no dynamics at any order"
            )

        return QzdClassification(
            watch_annihilates_initial=True,
            zero_level_dimension=dim0,
            order=order,
            prerequisite_i=prerequisite_i,
            commutator_norm_order0=self._energy(comm0, 0) if comm0 else 0.0,
            commutator_norm_order1=self._energy(comm1, 1) if comm1 else 0.0,
            notes=notes,
        )

    def cycle(self, order: QzdOrder) -> float:
        """2 pi over the smallest nonzero level gap of ``order``'s block, in units of 1/k.

        The block is ``order0``'s (zeroth) or ``order1``'s (first); levels at
        most its round-off floor apart count as one. Other orders, and a
        block of one level, raise UnsupportedConfigurationError.
        """
        n = {QzdOrder.ZEROTH: 0, QzdOrder.FIRST: 1}.get(order)
        gaps = np.zeros(0)
        if n is not None:
            gaps = np.diff(np.linalg.eigvalsh(self.blocks[n].block))
            gaps = gaps[gaps > self.blocks[n].round_off]
        if not gaps.size:
            raise UnsupportedConfigurationError(
                f"{order.value} order has no effective cycle to set the default "
                "window; give an explicit t_max (--t-max)"
            )
        return float(2.0 * np.pi / np.min(gaps)) / self.lam**n


def analyze_watch(
    h_watch: SymTridiagMatrix,
    h_weak: SymTridiagMatrix,
    lam: float = 1.0,
    k: float = 1.0,
) -> WatchAnalysis:
    """The watch's zero basis and both effective Hamiltonians.

    The matrices are in units of k, the energy unit the analysis reads at.
    H_watch splits at its zero bonds into irreducible blocks, whose levels
    are simple (Parlett, The Symmetric Eigenvalue Problem, ch. 7). Each
    block's level nearest zero (``_eigvals_near_zero``) joins the zero level
    when |eta| <= ``tol`` = N eps ||H_watch||_F, which the analysis keeps for
    the psi0 check, and V0 takes in site order a 1 x 1 block's unit vector or
    one inverse iteration (``_eigvec_at``); two levels of one block raise
    ClusteringError, none AssumptionViolationError. Delta, the smallest |eta|
    outside, comes from the same neighbours of zero and sets the order-1
    block's floor N eps ||H_weak||_F^2 / Delta. Then H_weak V0 and one
    bordered solve: O(N), no N x N array.
    """
    n = h_watch.size
    tol = n * _EPS * h_watch.frobenius_norm()
    cuts = (np.flatnonzero(h_watch.offdiag == 0.0) + 1).tolist()
    columns, delta = [], np.inf
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        block = SymTridiagMatrix(h_watch.diag[lo:hi], h_watch.offdiag[lo : hi - 1])
        w = block.diag if hi - lo == 1 else _eigvals_near_zero(block)
        member = np.abs(w) <= tol
        if np.count_nonzero(member) > 1:
            raise ClusteringError(
                f"ambiguous zero level: {np.count_nonzero(member)} of the levels next to zero "
                f"of the irreducible block of sites {lo + 1}..{hi} lie within tol={tol:.3e}"
            )
        delta = min(delta, np.min(np.abs(w[~member]), initial=np.inf))
        if member.any():
            # a 1 x 1 block's vector is exactly its unit vector
            columns.append(np.zeros(n))
            columns[-1][lo:hi] = 1.0 if hi - lo == 1 else _eigvec_at(block, w[member][0])
    if not columns:
        raise AssumptionViolationError(
            f"H_watch has no zero level (no |eta| <= tol={tol:.3e}); "
            "the watched-subspace framework does not apply"
        )
    # blocks have disjoint supports, so the unit columns are orthonormal
    v0 = np.column_stack(columns)
    order0 = hqzd_order0(v0, h_weak)
    # order 0's floor is N eps ||H_weak||_F, so order 1's N eps ||H_weak||_F^2 / Delta
    # is its square over N eps Delta
    floor1 = order0.round_off**2 / (n * _EPS * delta)
    order1 = replace(hqzd_order1(v0, h_weak, h_watch), round_off=floor1)
    return WatchAnalysis(h_watch, tol, v0, (order0, order1), lam, k)


def classify(
    h_watch: SymTridiagMatrix,
    h_weak: SymTridiagMatrix,
    psi0: np.ndarray,
    lam: float = 1.0,
) -> QzdClassification:
    """Classify the order of the constrained dynamics.

    Decision tree: dim P0 < 2 -> no_dynamics; the order-0
    effective Hamiltonian fails to commute with |psi0><psi0| -> zeroth;
    otherwise, if it is proportional to P0 (its ``eta1_common`` is set) and
    the order-1 effective Hamiltonian fails to commute -> first; otherwise
    higher_or_none.

    The zero level is ``analyze_watch``'s, and a commutator counts as
    nonvanishing when its Frobenius norm exceeds sqrt2 times its block's
    round-off floor, N eps times its order's scale: ||H_weak|| for order 0
    and ||H_weak||^2 / Delta for order 1 (per unit lam), both in units of
    k = max|H_weak|, over which the matrices are solved; one that does not
    is reported as 0.0. The commutator is sqrt2 times the couplings of
    V0^T psi0 to the rest of the zero level, so this is the floor the
    nonzero listings read.
    Proportionality to P0 is the one test of ``hqzd_order0``, relative to
    the norm of H_weak.
    """
    k = h_weak.max_abs_entry() or 1.0
    h_watch, h_weak = (SymTridiagMatrix(h.diag / k, h.offdiag / k) for h in (h_watch, h_weak))
    return analyze_watch(h_watch, h_weak, lam, k).classify(psi0)


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
