"""Real-symmetric tridiagonal linear algebra.

Eigendecomposition, spectral time evolution, and closed-form tridiagonal
inverses/determinants. Every Hamiltonian in this package is real symmetric,
so eigenvectors are kept real and time evolution only multiplies them by
complex phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalFailureError, SingularMatrixError, ValidationError

# Components below this magnitude do not fix an eigenvector's sign.
PHASE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class SymTridiagMatrix:
    """Real symmetric tridiagonal matrix stored as diagonal + off-diagonal.

    ``diag`` has length N, ``offdiag`` length N-1; entry ``offdiag[i]``
    couples sites i and i+1 (0-based).
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or diag.size < 1:
            raise ValidationError("diag: expected a 1-d array with at least one entry")
        if offdiag.ndim != 1 or offdiag.size != diag.size - 1:
            raise ValidationError("offdiag: expected length size-1")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
            raise ValidationError("matrix entries must be finite")

    @property
    def size(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        idx = np.arange(self.size - 1)
        a[idx, idx + 1] = self.offdiag
        a[idx + 1, idx] = self.offdiag
        return a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != (self.size,):
            raise ValidationError(f"vector length {v.shape} does not match size {self.size}")
        out = self.diag * v
        out[:-1] = out[:-1] + self.offdiag * v[1:]
        out[1:] = out[1:] + self.offdiag * v[:-1]
        return out

    def max_abs_entry(self) -> float:
        m = float(np.max(np.abs(self.diag)))
        if self.offdiag.size:
            m = max(m, float(np.max(np.abs(self.offdiag))))
        return m

    def frobenius_norm(self) -> float:
        return math.sqrt(float(self.diag @ self.diag + 2.0 * self.offdiag @ self.offdiag))

    def rows_times(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows where ``self @ v`` can be nonzero, and its entries there.

        Only the rows holding a nonzero entry are formed (for H_weak, the four
        rows of its two end bonds), in O(rows * columns of v).
        """
        n = self.size
        off = np.concatenate(([0.0], self.offdiag, [0.0]))  # row i: off[i] left, off[i + 1] right
        rows = np.flatnonzero((self.diag != 0.0) | (off[:-1] != 0.0) | (off[1:] != 0.0))
        left, right = np.maximum(rows - 1, 0), np.minimum(rows + 1, n - 1)
        out = (
            self.diag[rows, None] * v[rows]
            + off[rows, None] * v[left]
            + off[rows + 1, None] * v[right]
        )
        return rows, out


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal real eigenvectors.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``. Each column's sign
    is fixed so that its first component with magnitude above ``PHASE_EPS``
    is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs to the canonical convention, in place."""
    lead = np.argmax(np.abs(vectors) > PHASE_EPS, axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    vectors *= signs
    return vectors


def eig_sym_tridiag(m: SymTridiagMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric tridiagonal matrix."""
    if m.size == 1:
        return SpectralDecomposition(m.diag.copy(), np.ones((1, 1)))
    try:
        w, v = scipy.linalg.eigh_tridiagonal(m.diag, m.offdiag)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(
            f"tridiagonal eigensolver failed to converge on a {m.size}x{m.size} matrix"
        ) from exc
    return SpectralDecomposition(w, _fix_phases(v))


def eig_sym_dense(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a dense real symmetric matrix.

    Used for projector-derived matrices such as effective Hamiltonians.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-12 * np.max(np.abs(a), initial=0.0):
        raise ValidationError("matrix is not symmetric")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"dense eigensolver failed to converge on a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    return SpectralDecomposition(w, _fix_phases(v))


def orthonormal_columns(v: np.ndarray, rows: int, name: str) -> np.ndarray:
    """``v`` as a float array, checked to be rows x d with orthonormal columns."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != rows:
        raise ValidationError(f"{name}: expected {rows} rows, got shape {v.shape}")
    if np.linalg.norm(v.T @ v - np.eye(v.shape[1])) > 1e-10:
        raise ValidationError(f"{name}: columns must be orthonormal")
    return v


def check_state(v: np.ndarray, size: int, name: str) -> np.ndarray:
    """``v`` as a complex array, checked to be a unit vector of length size."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (size,):
        raise ValidationError(f"{name}: dimension {v.shape} does not match size {size}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValidationError(f"{name}: must have unit norm within 1e-12")
    return v


def evolve(d: SpectralDecomposition, psi0: np.ndarray, t: float) -> np.ndarray:
    """psi(t) = sum_n exp(-i eta_n t) (v_n . psi0) v_n."""
    psi0 = check_state(psi0, d.size, "psi0")
    if t == 0.0:
        return psi0.copy()
    amps = d.eigenvectors.T @ psi0
    return d.eigenvectors @ (np.exp(-1j * d.eigenvalues * t) * amps)


def grid_phase_factors(
    eigenvalues: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i eta_n t_j) on a uniform grid from 0, as coarse and fine factors.

    Writing time index j = c*B + r with B = ceil(sqrt(T)) for T times,
    exp(-i eta_n t_j) = coarse[c, n] * fine[n, r] up to rounding, with
    coarse = exp(-i t_cB eta_n) (ceil(T/B) x N) and fine = exp(-i eta_n t_r)
    (N x B): N * 2B exponentials where the full table takes N * T.

    ``times`` must be a uniform grid from 0 (as ``TimeGrid.times`` makes it)
    to 1e-12 relative; anything else raises ValidationError.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValidationError("times: expected a non-empty 1-d array")
    uniform = np.linspace(0.0, times[-1], times.size)
    if not np.max(np.abs(times - uniform)) <= 1e-12 * abs(times[-1]):
        raise ValidationError("times: expected a uniform grid starting at 0")
    # t_cB + t_r = t_(cB+r) up to rounding because the grid samples j * dt
    b = math.ceil(math.sqrt(times.size))
    coarse = np.exp(-1j * (times[::b, None] * eigenvalues))
    fine = np.exp(-1j * (eigenvalues[:, None] * times[:b]))
    return coarse, fine


def phase_sums(
    vectors: np.ndarray, eigenvalues: np.ndarray, weights: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Column j is sum_n vectors[:, n] weights[n] exp(-i eta_n t_j).

    ``vectors`` is real; ``times`` a uniform grid from 0. The weighted N x T
    phase table is formed from ``grid_phase_factors``, and the real
    ``vectors`` multiply its (re, im) pairs in one real matrix product.
    """
    if np.iscomplexobj(vectors):
        raise ValidationError("vectors: must be real")
    coarse, fine = grid_phase_factors(eigenvalues, times)
    n = fine.shape[0]
    table = ((coarse.T * weights[:, None])[:, :, None] * fine[:, None, :]).reshape(n, -1)
    return (vectors @ table.view(float)).view(complex)[:, : len(times)]


def evolve_grid(d: SpectralDecomposition, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at many times at once; column j is psi(times[j]).

    ``times`` must be a uniform grid from 0 (see ``grid_phase_factors``).
    """
    psi0 = check_state(psi0, d.size, "psi0")
    amps = d.eigenvectors.T @ psi0
    return phase_sums(d.eigenvectors, d.eigenvalues, amps, times)


def _continuants(m: SymTridiagMatrix) -> np.ndarray:
    """Leading principal minors theta[0..N] with theta[0] = 1."""
    n = m.size
    a, b = m.diag, m.offdiag
    theta = np.empty(n + 1)
    theta[0] = 1.0
    theta[1] = a[0]
    for i in range(2, n + 1):
        theta[i] = a[i - 1] * theta[i - 1] - b[i - 2] ** 2 * theta[i - 2]
    return theta


def det_tridiag(m: SymTridiagMatrix) -> float:
    """Determinant via the three-term continuant recursion."""
    return float(_continuants(m)[-1])


def _nonsingular_continuants(m: SymTridiagMatrix) -> np.ndarray:
    """``_continuants(m)``, or SingularMatrixError when m is singular.

    Singular means |det| < 1e-12 * (max|entry|)^N.
    """
    n = m.size
    theta = _continuants(m)
    det = theta[-1]

    scale = m.max_abs_entry()
    singular = det == 0.0 or scale == 0.0
    if not singular:
        # compare in logs so the threshold never overflows for large N
        log_thresh = np.log(1e-12) + n * np.log(scale)
        singular = np.log(abs(det)) < log_thresh
    if singular:
        raise SingularMatrixError(
            f"tridiagonal matrix of size {n}x{n} is singular (det={det:.3e})"
        )
    return theta


def invert_tridiag(m: SymTridiagMatrix) -> np.ndarray:
    """Closed-form inverse of a symmetric tridiagonal matrix.

    Element (i, j), i <= j, equals
    (-1)^(i+j) b_i...b_{j-1} theta_{i-1} phi_{j+1} / theta_N
    with theta the forward and phi the backward continuants.

    Raises SingularMatrixError when |det| < 1e-12 * (max|entry|)^N; an
    unmodified odd chain's interior block lands here through its exact zero
    mode.
    """
    n = m.size
    a, b = m.diag, m.offdiag
    theta = _nonsingular_continuants(m)
    det = theta[-1]

    phi = np.empty(n + 2)
    phi[n + 1] = 1.0
    phi[n] = a[n - 1]
    for i in range(n - 1, 0, -1):
        phi[i] = a[i - 1] * phi[i + 1] - b[i - 1] ** 2 * phi[i + 2]

    inv = np.empty((n, n))
    for i in range(n):
        prod = theta[i] / det
        inv[i, i] = prod * phi[i + 2]
        for j in range(i + 1, n):
            prod *= -b[j - 1]
            inv[i, j] = prod * phi[j + 2]
            inv[j, i] = inv[i, j]
    return inv


def inverse_corner_tridiag(m: SymTridiagMatrix) -> float:
    """Element (0, N-1) of ``invert_tridiag(m)`` in O(N): prod(-b) / theta_N.

    Raises the same SingularMatrixError as ``invert_tridiag``.
    """
    theta = _nonsingular_continuants(m)
    return float(np.prod(-m.offdiag) / theta[-1])
