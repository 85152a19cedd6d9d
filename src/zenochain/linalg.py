"""Real-symmetric tridiagonal linear algebra.

Eigendecomposition (full, or the eigenvalues next to zero and one
eigenvector), a bordered tridiagonal solve and spectral time evolution over
a uniform ``TimeGrid``. Every
Hamiltonian in this package is real symmetric, so eigenvectors are real
(``SpectralDecomposition`` rejects complex ones), a real state stays real,
and time evolution only multiplies them by complex phases. f2py's LAPACK
wrappers reject an empty off-diagonal, so a 1 x 1 matrix goes to every
LAPACK call with one unread zero entry there (``_lapack_offdiag``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalFailureError, ValidationError

# Mirror-symmetric matrices of at least this size are solved as two half-size
# parity blocks; below it one full solve costs less than the split's overhead.
PARITY_MIN_SIZE = 64
_SQRT_HALF = math.sqrt(0.5)


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
        return float(max(np.max(np.abs(self.diag)), np.max(np.abs(self.offdiag), initial=0.0)))

    def frobenius_norm(self) -> float:
        # over the power of two at or below max|entry|, exactly, so no square
        # overflows; a norm past the double range reads inf
        s = math.ldexp(1.0, math.frexp(self.max_abs_entry())[1] - 1)
        d, e = self.diag / s, self.offdiag / s
        return s * math.sqrt(float(d @ d + 2.0 * e @ e))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps intervals covering [0, t_max]."""

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0 and np.isfinite(self.t_max)):
            raise ValidationError("t_max: must be finite and positive")
        # an int or a numpy integer; a bool is neither to numpy
        if not np.issubdtype(type(self.n_steps), np.integer) or self.n_steps < 1:
            raise ValidationError("n_steps: must be a positive integer")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending; complex or non-finite ones are rejected) and
    orthonormal real eigenvectors (complex ones are rejected, so U^T is
    U^H); ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.eigenvalues):
            raise ValidationError("eigenvalues: must be real")
        if not np.all(np.isfinite(self.eigenvalues)):
            raise ValidationError("eigenvalues: must be finite")
        if np.iscomplexobj(self.eigenvectors):
            raise ValidationError("eigenvectors: must be real")

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def _lapack_offdiag(m: SymTridiagMatrix) -> np.ndarray:
    """m's off-diagonal, or one unread zero entry at N = 1."""
    return m.offdiag if m.size > 1 else np.zeros(1)


def _dstevd(diag: np.ndarray, offdiag: np.ndarray, size: int):
    """LAPACK ``dstevd`` on one tridiagonal (block); failures name ``size``."""
    w, v, info = lapack.dstevd(diag, offdiag)
    if info != 0:
        raise NumericalFailureError(
            f"tridiagonal eigensolver failed to converge on a {size}x{size} matrix"
        )
    return w, v


def _parity_blocks(m: SymTridiagMatrix) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(diag, offdiag) of the symmetric and the antisymmetric parity block of
    a mirror-symmetric m, or () when m is below ``PARITY_MIN_SIZE`` or not
    mirror-symmetric (compared exactly).

    For N = 2h both blocks are m's leading h x h block with offdiag[h-1]
    added to (symmetric) or subtracted from (antisymmetric) its last
    diagonal entry. For N = 2h+1 the symmetric block is the leading
    (h+1) x (h+1) block with its last bond scaled by sqrt(2), the
    antisymmetric block the leading h x h block.
    """
    n, h = m.size, m.size // 2
    d, e = m.diag, m.offdiag
    if n < PARITY_MIN_SIZE or not (
        np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
    ):
        return ()
    if n % 2 == 0:
        ds, da = d[:h].copy(), d[:h].copy()
        ds[-1] += e[h - 1]
        da[-1] -= e[h - 1]
        return (ds, e[: h - 1]), (da, e[: h - 1])
    es = e[:h].copy()
    es[-1] *= math.sqrt(2.0)
    return (d[: h + 1], es), (d[:h], e[: h - 1])


def eig_sym_tridiag(m: SymTridiagMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric tridiagonal matrix (LAPACK ``dstevd``).

    A mirror-symmetric m of at least ``PARITY_MIN_SIZE`` sites is solved as
    its two half-size parity blocks (``_parity_blocks``). With block
    eigenvector v, a symmetric eigenvector is (v[:h]/sqrt2, [v[h]] for odd N,
    reversed v[:h]/sqrt2) and an antisymmetric one (v/sqrt2, [0] for odd N,
    -reversed v/sqrt2); the two sets merge by a stable sort of their eigenvalues.
    """
    n = m.size
    blocks = _parity_blocks(m)
    if not blocks:
        w, v = _dstevd(m.diag, _lapack_offdiag(m), n)
        return SpectralDecomposition(w, v)
    h = n // 2
    (ws, vs), (wa, va) = (_dstevd(d, e, n) for d, e in blocks)
    vs[:h] *= _SQRT_HALF
    va *= _SQRT_HALF
    w = np.concatenate([ws, wa])
    order = np.argsort(w, kind="stable")
    slot = np.empty(n, dtype=np.intp)
    slot[order] = np.arange(n)
    sym, anti = slot[: ws.size], slot[ws.size :]
    rows = np.empty((n, n))  # row i is eigenvector i
    rows[sym, :h] = vs[:h].T
    rows[sym, n - h :] = vs[h - 1 :: -1].T
    rows[anti, :h] = va.T
    rows[anti, n - h :] = -va[::-1].T
    if n % 2:
        rows[sym, h] = vs[h]
        rows[anti, h] = 0.0
    return SpectralDecomposition(w[order], rows.T)


def _eigvals_near_zero(m: SymTridiagMatrix) -> np.ndarray:
    """m's eigenvalues next to zero (ascending order): the two below zero and
    the two at or above it where m has them. A value-range ``dstebz`` gives the
    index c of the first level >= 0 (a zero pivot counts as negative, LAPACK's
    pivmin rule), and an index-range ``dstebz`` bisects levels c-2..c+1 only. O(N)."""
    e = _lapack_offdiag(m)
    # with abstol = inf every interval counts as located at once: nothing is
    # bisected, and count is the Sturm count of the levels in (-inf, 0]
    count, *_, count_info = lapack.dstebz(m.diag, e, 1, -np.inf, 0.0, 0, 0, np.inf, "E")
    first, last = max(count - 2, 0), min(count + 2, m.size)
    found, w, *_, info = lapack.dstebz(m.diag, e, 2, 0.0, 0.0, first + 1, last, 0.0, "E")
    if count_info != 0 or info != 0:
        raise NumericalFailureError(f"tridiagonal bisection failed on a {m.size}x{m.size} matrix")
    return w[:found]


def _eigvec_at(m: SymTridiagMatrix, w: float) -> np.ndarray:
    """The unit eigenvector of an irreducible m at its simple eigenvalue w, by
    one ``dstein`` inverse iteration; its largest-magnitude entry is positive."""
    n = m.size  # one block: every level in block 1, which ends at n
    v, info = lapack.dstein(m.diag, _lapack_offdiag(m), [w], np.ones(n), np.full(n, n))
    # with info 0, dstein can return a NaN column (next to a 5e298 entry)
    if info != 0 or not np.all(np.isfinite(v)):
        raise NumericalFailureError(f"tridiagonal eigenvector solver failed on a {n}x{n} matrix")
    return v[:, 0]


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
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check below
            cap = g[:, c:] * scale
        cap[:d, :d] -= np.eye(d)
        *_, zy, info = lapack.dgesv(cap, -g[:, :c])
    if info != 0:
        raise NumericalFailureError(f"bordered {n}x{n} tridiagonal solve is singular")
    x = sol[:, :c] + sol[:, c:] @ (scale[:, None] * zy)
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"bordered {n}x{n} tridiagonal solve is not finite")
    return x


def orthonormal_columns(v: np.ndarray, rows: int, name: str) -> np.ndarray:
    """``v`` as a float array, checked to be real and rows x d with orthonormal columns."""
    if np.iscomplexobj(v):
        raise ValidationError(f"{name}: must be real")
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != rows:
        raise ValidationError(f"{name}: expected {rows} rows, got shape {v.shape}")
    if not np.linalg.norm(v.T @ v - np.eye(v.shape[1])) <= 1e-10:  # NaN fails
        raise ValidationError(f"{name}: columns must be orthonormal")
    return v


def check_state(v: np.ndarray, size: int, name: str) -> np.ndarray:
    """``v`` as a float array, or complex for complex input, of unit norm and length size."""
    v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    if v.shape != (size,):
        raise ValidationError(f"{name}: dimension {v.shape} does not match size {size}")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:  # NaN fails
        raise ValidationError(f"{name}: must have unit norm within 1e-12")
    return v


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
    eigenvalues: np.ndarray, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i eta_n t_j) on the grid's n_steps + 1 times, as coarse and fine factors.

    Writing time index j = c*B + r with B = ceil(sqrt(T)) for T times,
    exp(-i eta_n t_j) = coarse[c, n] * fine[n, r] up to rounding, with
    coarse = exp(-i t_cB eta_n) (ceil(T/B) x N) and fine = exp(-i eta_n t_r)
    (N x B). Each table is built by doubling (``_phase_powers``), so both
    take about N * 2 log2(B) exponentials where the full table takes N * T.
    """
    dt, count = grid.t_max / grid.n_steps, grid.n_steps + 1
    b = math.ceil(math.sqrt(count))
    coarse = _phase_powers(eigenvalues, b * dt, -(-count // b))
    fine = np.ascontiguousarray(_phase_powers(eigenvalues, dt, b).T)
    return coarse, fine


def evolve_grid(d: SpectralDecomposition, psi0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States at every grid time at once; column j is psi(grid.times[j]).

    Column j is sum_n u_n <u_n|psi0> exp(-i eta_n t_j). The weighted N x T
    phase table is formed from ``grid_phase_factors``, and the real
    eigenvectors multiply its (re, im) pairs in one real matrix product.
    """
    u = d.eigenvectors
    psi0 = check_state(psi0, d.size, "psi0")
    coarse, fine = grid_phase_factors(d.eigenvalues, grid)
    weights = u.T @ psi0
    table = ((coarse.T * weights[:, None])[:, :, None] * fine[:, None, :]).reshape(d.size, -1)
    return (u @ table.view(float)).view(complex)[:, : grid.n_steps + 1]
