"""Real-symmetric tridiagonal linear algebra.

Eigendecomposition (full, eigenvalues only, or a few eigenvectors), a
bordered tridiagonal solve, spectral time evolution, and closed-form
tridiagonal inverses/determinants. Every Hamiltonian in this package is
real symmetric, so eigenvectors are kept real and time evolution only
multiplies them by complex phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
        """self @ v for v of shape (N,) or (N, k), in O(N k)."""
        v = np.asarray(v)
        if v.shape[:1] != (self.size,) or v.ndim > 2:
            raise ValidationError(f"vector length {v.shape} does not match size {self.size}")
        diag, off = self.diag, self.offdiag
        if v.ndim == 2:
            diag, off = diag[:, None], off[:, None]
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    def max_abs_entry(self) -> float:
        m = float(np.max(np.abs(self.diag)))
        if self.offdiag.size:
            m = max(m, float(np.max(np.abs(self.offdiag))))
        return m

    def frobenius_norm(self) -> float:
        return math.sqrt(float(self.diag @ self.diag + 2.0 * self.offdiag @ self.offdiag))


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
    """Flip eigenvector signs to the canonical convention, in place.

    Row 0 decides every column whose first entry exceeds ``PHASE_EPS`` in
    magnitude; only the other columns are scanned for their first such entry.
    """
    signs = np.sign(vectors[0])
    scan = np.flatnonzero(np.abs(vectors[0]) <= PHASE_EPS)
    if scan.size:
        rest = vectors[:, scan]
        lead = np.argmax(np.abs(rest) > PHASE_EPS, axis=0)
        signs[scan] = np.sign(rest[lead, np.arange(scan.size)])
    signs[signs == 0.0] = 1.0
    vectors *= signs
    return vectors


def eig_sym_tridiag(m: SymTridiagMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric tridiagonal matrix (LAPACK ``dstevd``)."""
    if m.size == 1:
        return SpectralDecomposition(m.diag.copy(), np.ones((1, 1)))
    w, v, info = lapack.dstevd(m.diag, m.offdiag)
    if info != 0:
        raise NumericalFailureError(
            f"tridiagonal eigensolver failed to converge on a {m.size}x{m.size} matrix"
        )
    return SpectralDecomposition(w, _fix_phases(v))


def eigvals_sym_tridiag(m: SymTridiagMatrix) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    LAPACK ``dstevd`` without eigenvectors: O(N^2), no N x N array.
    """
    if m.size == 1:
        return m.diag.copy()
    w, _, info = lapack.dstevd(m.diag, m.offdiag, compute_v=0)
    if info != 0:
        raise NumericalFailureError(
            f"tridiagonal eigenvalue solver failed on a {m.size}x{m.size} matrix"
        )
    return w


def eigvecs_sym_tridiag(m: SymTridiagMatrix, lo: int, hi: int) -> np.ndarray:
    """Eigenvectors of eigenvalues lo..hi-1 (ascending order), N x (hi - lo).

    Bisection (``dstebz``) and inverse iteration (``dstein``) for those
    eigenvalues only; columns are ascending, signs as in ``eig_sym_tridiag``.
    """
    if m.size == 1:
        return np.ones((1, hi - lo))
    count, w, block, split, info = lapack.dstebz(
        m.diag, m.offdiag, 2, 0.0, 0.0, lo + 1, hi, 0.0, "B"
    )
    if info == 0:
        order = np.argsort(w[:count], kind="stable")
        v, info = lapack.dstein(m.diag, m.offdiag, w[:count], block, split)
    if info != 0:
        raise NumericalFailureError(
            f"tridiagonal eigenvector solver failed on a {m.size}x{m.size} matrix"
        )
    return _fix_phases(v[:, order])


def solve_bordered_tridiag(m: SymTridiagMatrix, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with V^T x = 0 and m x + V y = b for some y: the bordered system
    [[m, V], [V^T, 0]] [x; y] = [b; 0].

    ``v`` (N x d) has orthonormal columns spanning the (near-)null space of
    m. For b orthogonal to V, x = sum over the other eigenpairs of
    u u^T b / eta. The d pivot rows of V's LU factorisation (each column's
    largest entry after elimination) get sigma = max|m_ij| added to m's
    diagonal, which makes the tridiagonal m' nonsingular: on an irreducible
    block with a simple zero eigenvalue, v_r^2 = det(m without row and
    column r) / p'(0), so det(m') = sigma det(m without r) != 0. One
    ``dgtsv`` solves m' for b, the lifted unit vectors E and V together, and
    a 2d x 2d capacitance system removes the lift. O(N d (d + columns of b)).
    """
    n, d = v.shape
    c = b.shape[1]
    if d == n:
        return np.zeros(b.shape)
    rows = np.arange(n)
    for j, p in enumerate(lapack.dgetrf(v)[1].tolist()):
        rows[j], rows[p] = rows[p], rows[j]
    rows = rows[:d]
    sigma = m.max_abs_entry() or 1.0
    diag = m.diag.copy()
    diag[rows] += sigma
    rhs = np.zeros((n, c + 2 * d), order="F")
    rhs[:, :c] = b
    rhs[rows, c + np.arange(d)] = 1.0
    rhs[:, c + d :] = v
    *_, sol, info = lapack.dgtsv(m.offdiag, diag, m.offdiag, rhs, overwrite_b=1)
    if info == 0:
        # x = sol_b + sol_E (sigma z) - sol_V y with z = E^T x and V^T x = 0
        scale = np.full(2 * d, -1.0)
        scale[:d] = sigma
        g = np.vstack([sol[rows], v.T @ sol])
        cap = g[:, c:] * scale
        cap[:d, :d] -= np.eye(d)
        *_, zy, info = lapack.dgesv(cap, -g[:, :c])
    if info != 0:
        raise NumericalFailureError(f"bordered {n}x{n} tridiagonal solve is singular")
    return sol[:, :c] + sol[:, c:] @ (scale[:, None] * zy)


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


def overlaps(vectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """vectors^T psi for real ``vectors`` and complex ``psi``.

    The real and imaginary parts of psi are multiplied separately (the
    second only when psi has one), so no complex copy of ``vectors`` is made.
    """
    out = vectors.T @ psi.real + 0j
    if np.any(psi.imag):
        out += 1j * (vectors.T @ psi.imag)
    return out


def evolve(d: SpectralDecomposition, psi0: np.ndarray, t: float) -> np.ndarray:
    """psi(t) = sum_n exp(-i eta_n t) (v_n . psi0) v_n."""
    psi0 = check_state(psi0, d.size, "psi0")
    if t == 0.0:
        return psi0.copy()
    amps = overlaps(d.eigenvectors, psi0)
    return d.eigenvectors @ (np.exp(-1j * d.eigenvalues * t) * amps)


def _phase_powers(eigenvalues: np.ndarray, step: float, count: int) -> np.ndarray:
    """exp(-i eta_n m step) for m = 0..count-1 (count x N), by doubling.

    One exponential per power of two, all taken at once: rows [m, 2m) are
    rows [0, m) times exp(-i eta m step), about log2(count) exponentials per
    eigenvalue.
    """
    table = np.empty((count, eigenvalues.size), dtype=complex)
    table[0] = 1.0
    doublings = max(count - 1, 1).bit_length()
    m = 1
    for factor in np.exp(-1j * np.outer(step * 2.0 ** np.arange(doublings), eigenvalues)):
        k = min(m, count - m)
        np.multiply(table[:k], factor, out=table[m : m + k])
        m *= 2
    return table


def grid_phase_factors(
    eigenvalues: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i eta_n t_j) on a uniform grid from 0, as coarse and fine factors.

    Writing time index j = c*B + r with B = ceil(sqrt(T)) for T times,
    exp(-i eta_n t_j) = coarse[c, n] * fine[n, r] up to rounding, with
    coarse = exp(-i t_cB eta_n) (ceil(T/B) x N) and fine = exp(-i eta_n t_r)
    (N x B). Each table is built by doubling (``_phase_powers``), so both
    take about N * 2 log2(B) exponentials where the full table takes N * T.

    ``times`` must be a uniform grid from 0 (as ``TimeGrid.times`` makes it)
    to 1e-12 relative; anything else raises ValidationError.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValidationError("times: expected a non-empty 1-d array")
    dt = times[-1] / max(times.size - 1, 1)
    if not np.max(np.abs(times - dt * np.arange(times.size))) <= 1e-12 * abs(times[-1]):
        raise ValidationError("times: expected a uniform grid starting at 0")
    b = math.ceil(math.sqrt(times.size))
    coarse = _phase_powers(eigenvalues, b * dt, -(-times.size // b))
    fine = np.ascontiguousarray(_phase_powers(eigenvalues, dt, b).T)
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
    amps = overlaps(d.eigenvectors, psi0)
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
