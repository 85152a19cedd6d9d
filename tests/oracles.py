"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: time evolution via a
fixed-step Runge-Kutta integrator, a fixed-step matrix-exponential
propagator or one exponential per sample time, inversion via Gaussian
elimination with partial pivoting, determinants via cofactor expansion,
CSV text one formatted cell at a time, matrix listings by a double loop over
the entries, eigenvalue grouping one Python level at a time, effective
Hamiltonians as eigenvector sums over a dense eigendecomposition, and
eigenvector signs by a scan of every entry.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.linalg
import scipy.optimize

from zenochain.errors import ClusteringError


def rk4_evolve(h_dense: np.ndarray, psi0: np.ndarray, t_samples: np.ndarray, dt: float) -> np.ndarray:
    """Integrate i dpsi/dt = H psi; returns states at t_samples as columns.

    t_samples must be ascending multiples of dt (within rounding).
    """
    psi = np.asarray(psi0, dtype=complex).copy()

    def deriv(state: np.ndarray) -> np.ndarray:
        return -1j * (h_dense @ state)

    out = np.empty((psi.size, len(t_samples)), dtype=complex)
    t = 0.0
    j = 0
    while j < len(t_samples):
        if abs(t - t_samples[j]) < dt / 2:
            out[:, j] = psi
            j += 1
            if j == len(t_samples):
                break
        k1 = deriv(psi)
        k2 = deriv(psi + dt / 2 * k1)
        k3 = deriv(psi + dt / 2 * k2)
        k4 = deriv(psi + dt * k3)
        psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return out


def group_levels_by_loop(
    w: np.ndarray, tol: float
) -> tuple[list[tuple[float, tuple[int, ...]]], int | None]:
    """Degenerate levels of the ascending eigenvalues ``w``, one level at a time.

    Adjacent eigenvalues closer than ``tol`` share a level. Returns the
    levels as (mean, member indices) and the index of the zero level (the
    level of smallest |mean| below ``tol``, or None). Raises ClusteringError
    when a level spans more than ``tol``.
    """
    groups = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            groups.append([i])
        else:
            groups[-1].append(i)
    for idx in groups:
        if w[idx[-1]] - w[idx[0]] > tol:
            gaps = ", ".join(f"{g:.3e}" for g in np.diff(w))
            raise ClusteringError(
                f"ambiguous eigenvalue clustering at tol={tol:.3e}; gaps: [{gaps}]"
            )
    levels = [(float(np.mean(w[idx])), tuple(idx)) for idx in groups]
    candidates = [i for i, (mean, _) in enumerate(levels) if abs(mean) < tol]
    zero = min(candidates, key=lambda i: abs(levels[i][0])) if candidates else None
    return levels, zero


def gaussian_elimination_inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a.copy(), np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def cofactor_det(a: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        if a[0, j] == 0.0:
            continue
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def expm_leakage_peak(
    h_dense: np.ndarray,
    psi0: np.ndarray,
    watched: list[int],
    t_max: float,
    n_steps: int,
) -> tuple[float, float]:
    """Sampled and refined peak of the population outside the watched sites.

    The state is stepped across n_steps equal intervals of [0, t_max] by the
    one-step propagator expm(-i H dt); the largest of those n_steps + 1
    samples is the sampled peak. It is then refined to the exact local
    maximum over its two neighbouring intervals by a bounded scalar search,
    each trial time reached from the left neighbour's state by its own expm;
    the search assumes a single maximum in that bracket. Returns (sampled,
    refined), with refined >= sampled.
    """
    h_dense = np.asarray(h_dense, dtype=float)
    dt = t_max / n_steps
    step = scipy.linalg.expm(-1j * dt * h_dense)
    states = np.empty((n_steps + 1, h_dense.shape[0]), dtype=complex)
    states[0] = psi0
    for j in range(n_steps):
        states[j + 1] = step @ states[j]

    samples = 1.0 - np.sum(np.abs(states[:, watched]) ** 2, axis=1)
    i = int(np.argmax(samples))
    sampled = float(samples[i])
    left = max(i - 1, 0)
    span = (min(i + 1, n_steps) - left) * dt

    def neg_leakage(s: float) -> float:
        psi = scipy.linalg.expm(-1j * s * h_dense) @ states[left]
        return float(np.sum(np.abs(psi[watched]) ** 2)) - 1.0

    # a time tolerance of 1e-6 steps leaves the peak value exact to ~1e-12
    opt = scipy.optimize.minimize_scalar(
        neg_leakage,
        bounds=(0.0, span),
        method="bounded",
        options={"xatol": dt * 1e-6},
    )
    return sampled, max(sampled, -float(opt.fun))


def direct_exp_evolve(
    vectors: np.ndarray,
    eigenvalues: np.ndarray,
    psi0: np.ndarray,
    times,
    right: np.ndarray | None = None,
) -> np.ndarray:
    """Columns vectors @ (exp(-i eta t) * (right^T psi0)), one time at a time.

    ``right`` defaults to ``vectors``; with orthonormal eigenvectors U this is
    psi(t) = U exp(-i Lambda t) U^T psi0. Each time takes its own exp of
    eta * t, so the times may be any values in any order.
    """
    right = vectors if right is None else right
    coef = np.asarray(right).T @ np.asarray(psi0, dtype=complex)
    out = np.empty((vectors.shape[0], len(times)), dtype=complex)
    for j, t in enumerate(times):
        out[:, j] = vectors @ (np.exp(-1j * eigenvalues * t) * coef)
    return out


def per_value_csv(header: list[str], rows) -> str:
    """CSV text written cell by cell: '{:.12g}' per float, ints as they are."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [x if isinstance(x, int) else "{:.12g}".format(float(x)) for x in row]
        )
    return out.getvalue()


def double_loop_nonzeros(matrix: np.ndarray, cut: float) -> list[list]:
    """Upper-triangle entries [i, j, value] (1-based) with |value| > cut."""
    out = []
    n = matrix.shape[0]
    for i in range(n):
        for j in range(i, n):
            if abs(matrix[i, j]) > cut:
                out.append([i + 1, j + 1, float(matrix[i, j])])
    return out


def scan_fix_phases(vectors: np.ndarray, eps: float) -> np.ndarray:
    """Signs flipped so each column's first entry above ``eps`` in magnitude is
    positive; a column without one keeps the sign of its first entry (a zero
    entry counts as positive). Scans every entry; returns a new array."""
    lead = np.argmax(np.abs(vectors) > eps, axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def eigenvector_sum_effective(
    h_watch: np.ndarray, h_weak: np.ndarray, lam: float, rtol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """P0, P0 H P0 and lam P0 H Qtilde H P0 from a dense eigh of H_watch.

    The zero level is the level ``group_levels_by_loop`` finds at
    rtol * max|eta|, spanned by V0. The order-1 term is the eigenvector sum
    lam c^T diag(-1/eta) c with c = V^T (H V0) over the other eigenpairs
    (V, eta). Returns the three N x N matrices and min |eta| over those pairs.
    """
    w, u = np.linalg.eigh(h_watch)
    scale = float(np.max(np.abs(w)))
    levels, zero = group_levels_by_loop(w, rtol * scale if scale > 0.0 else rtol)
    members = list(levels[zero][1])
    v0, v, eta = u[:, members], np.delete(u, members, axis=1), np.delete(w, members)
    hv0 = h_weak @ v0
    c = v.T @ hv0
    block1 = lam * c.T @ (c / -eta[:, None])
    return v0 @ v0.T, v0 @ (v0.T @ hv0) @ v0.T, v0 @ block1 @ v0.T, float(np.min(np.abs(eta)))
