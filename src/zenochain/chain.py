"""Construction of tight-binding chain Hamiltonians.

A chain of N >= 4 sites carries strong bonds (coupling lambda_inv * k) on
every interior link and weak bonds (coupling k) on the two end links:

    H_total = lambda_inv * H_watch + H_weak.

``h_watch`` is the strong part in units of the strong coupling; it also
carries any on-site energy shift as lambda * delta_omega on its diagonal, so
that ``lambda_inv * h_watch`` reproduces the delta_omega shift of the full
Hamiltonian. This makes ``h_watch`` exactly the unperturbed operator the
perturbation module diagonalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import SymTridiagMatrix


@dataclass(frozen=True)
class CouplingFluctuation:
    """Uniform i.i.d. relative noise on the interior (strong) bonds only."""

    relative_amplitude: float
    rng_seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.relative_amplitude <= 0.2:
            raise ValidationError("fluctuation.relative_amplitude: must lie in [0, 0.2]")
        # -0.0 passes the range check, but rng.uniform(0.0, -0.0) rejects it
        object.__setattr__(self, "relative_amplitude", abs(self.relative_amplitude))
        if not isinstance(self.rng_seed, (int, np.integer)) or self.rng_seed < 0:
            raise ValidationError("fluctuation.rng_seed: must be a non-negative integer")


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of one chain.

    delta_omega, when given, shifts the on-site energy of site 2 (1-based)
    of the full Hamiltonian. A zero shift is stored as None: it builds the
    unshifted chain.
    """

    n_sites: int
    lambda_inv: float
    k: float = 1.0
    delta_omega: float | None = None
    fluctuation: CouplingFluctuation | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 4:
            raise ValidationError("n_sites: must be an integer >= 4")
        for name in ("k", "lambda_inv", "delta_omega"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name}: must be finite, got {value}")
        if not self.k > 0.0:
            raise ValidationError("k: must be positive")
        if not self.lambda_inv >= 1.0:
            raise ValidationError("lambda_inv: must be >= 1")
        if not math.isfinite(1.2 * self.lambda_inv * self.k):  # 20% bond noise at most
            raise ValidationError(f"k: the strong bonds lambda_inv * k overflow at k = {self.k:g}")
        if self.delta_omega == 0.0:
            # a zero shift builds the unshifted chain; store it as no shift
            object.__setattr__(self, "delta_omega", None)

    @property
    def lam(self) -> float:
        return 1.0 / self.lambda_inv

    @property
    def is_modified(self) -> bool:
        return self.delta_omega is not None

    def in_units_of_k(self) -> ChainSpec:
        """This chain in units of k: k = 1 and the shift delta_omega / k."""
        shift = self.delta_omega
        if shift is not None:
            shift /= self.k
            if shift == 0.0 or not math.isfinite(shift):
                raise ValidationError(
                    f"delta_omega: delta_omega / k = {shift:g} leaves the double range"
                )
        return replace(self, k=1.0, delta_omega=shift)


@dataclass(frozen=True, eq=False)
class ChainHamiltonians:
    """The triple (H_total, H_watch, H_weak) of one chain.

    Invariant: h_total == lambda_inv * h_watch + h_weak entrywise (the
    on-site shift is carried inside h_watch as lambda * delta_omega).
    """

    spec: ChainSpec
    h_total: SymTridiagMatrix
    h_watch: SymTridiagMatrix
    h_weak: SymTridiagMatrix

    @cached_property
    def unit(self) -> ChainHamiltonians:
        """This chain over k, built once from ``spec.in_units_of_k()``; itself at k = 1."""
        return self if self.spec.k == 1.0 else build_chain(self.spec.in_units_of_k())


def build_chain(spec: ChainSpec) -> ChainHamiltonians:
    """Build the Hamiltonian triple for a chain specification.

    With fluctuation enabled, interior bond i carries k * (1 + u_i) with u_i
    drawn uniformly from +-relative_amplitude by a generator seeded with
    rng_seed; the two weak end bonds stay exact.
    """
    n, k = spec.n_sites, spec.k

    watch_diag = np.zeros(n)
    if spec.delta_omega is not None:
        watch_diag[1] = spec.lam * spec.delta_omega  # site 2
        if watch_diag[1] == 0.0:
            raise ValidationError("delta_omega: lam * delta_omega underflows to 0")

    watch_off = np.zeros(n - 1)
    interior = np.full(n - 3, k)
    if spec.fluctuation is not None and n > 3:
        rng = np.random.default_rng(spec.fluctuation.rng_seed)
        amp = spec.fluctuation.relative_amplitude
        interior = k * (1.0 + rng.uniform(-amp, amp, n - 3))
    watch_off[1:-1] = interior

    weak_off = np.zeros(n - 1)
    weak_off[0] = k
    weak_off[-1] = k

    h_watch = SymTridiagMatrix(watch_diag, watch_off)
    h_weak = SymTridiagMatrix(np.zeros(n), weak_off)
    h_total = SymTridiagMatrix(
        spec.lambda_inv * watch_diag, spec.lambda_inv * watch_off + weak_off
    )
    return ChainHamiltonians(spec, h_total, h_watch, h_weak)


def interior_block(h_watch: SymTridiagMatrix) -> SymTridiagMatrix:
    """The (N-2)x(N-2) block of the watch matrix on the interior sites.

    Rows and columns 2..N-1 (1-based) of the input, on-site shift included
    when the input carries one.
    """
    if h_watch.size < 4:
        raise ValidationError("interior_block: requires a matrix of size >= 4")
    return SymTridiagMatrix(h_watch.diag[1:-1], h_watch.offdiag[1:-1])
