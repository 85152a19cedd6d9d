"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: time evolution via a
fixed-step Runge-Kutta integrator, a fixed-step matrix-exponential
propagator or one exponential per sample time, inversion via Gaussian
elimination with partial pivoting, determinants via cofactor expansion or
the continuant recursion, CSV text one formatted cell at a time, matrix
listings by a double loop over the entries of the dense N x N effective
Hamiltonian (``dominant_effective_matrix``), eigenvalue grouping one Python
level at a time, effective Hamiltonians as eigenvector sums over a dense
eigendecomposition, the leakage series and the watch levels in 50-digit
``mpmath`` arithmetic.

The perturbative picture of the leakage is a referee for the exact delta:
first-order eigenstate corrections (``first_order_corrections``), the
first-order propagator correction they give (``u1_correction_trace``),
whose peak tracks the measured delta, and the leakage oscillation frequency
read off the exact spectrum (``leakage_frequency_estimate``).
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg
import scipy.optimize

from zenochain.errors import (
    ClusteringError,
    NumericalFailureError,
    UnsupportedConfigurationError,
    ValidationError,
)
from zenochain.linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    TimeGrid,
    check_state,
    orthonormal_columns,
)
from zenochain.perturbation import ProjectorSet
from zenochain.qzd import QzdOrder

# det_tridiag rescales its continuants when they leave this range.
_CONTINUANT_LOW, _CONTINUANT_HIGH = 2.0**-500, 2.0**500


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
    vectors: np.ndarray, eigenvalues: np.ndarray, psi0: np.ndarray, times
) -> np.ndarray:
    """Columns vectors @ (exp(-i eta t) * (vectors^T psi0)), one time at a time.

    With orthonormal eigenvectors U this is psi(t) = U exp(-i Lambda t) U^T
    psi0. Each time takes its own exp of eta * t, so the times may be any
    values in any order.
    """
    coef = np.asarray(vectors).T @ np.asarray(psi0, dtype=complex)
    out = np.empty((vectors.shape[0], len(times)), dtype=complex)
    for j, t in enumerate(times):
        out[:, j] = vectors @ (np.exp(-1j * eigenvalues * t) * coef)
    return out


def _mp_matrix(m: SymTridiagMatrix) -> mpmath.matrix:
    """m as a dense mpmath matrix; every double entry is an mpf exactly."""
    a = mpmath.zeros(m.size)
    for i, x in enumerate(m.diag.tolist()):
        a[i, i] = mpmath.mpf(x)
    for i, x in enumerate(m.offdiag.tolist()):
        a[i, i + 1] = a[i + 1, i] = mpmath.mpf(x)
    return a


def mp_watch_levels(h_watch: SymTridiagMatrix, dps: int = 50) -> list:
    """The eigenvalues of the double matrix h_watch to ``dps`` digits, ascending
    (``mpmath.eigsy``), as mpf."""
    with mpmath.workdps(dps):
        return sorted(mpmath.eigsy(_mp_matrix(h_watch), eigvals_only=True))


def mp_leakage_series(
    h_total: SymTridiagMatrix, zero_basis: np.ndarray, grid: TimeGrid, dps: int = 50
) -> np.ndarray:
    """L(t) = 1 - ||V0^T psi(t)||^2 for psi(0) = |1> at every grid time, to
    ``dps`` digits, rounded to doubles.

    It referees the exact dynamics of the program's own input: the double
    entries of the unit-k h_total, of V0 and of the grid times enter exactly
    as mpf. ``mpmath.eigsy`` gives eta and U; with w[a, n] = (V0^T u_n) u_n[0]
    each watched amplitude is sum_n w[a, n] (cos eta_n t - i sin eta_n t),
    and every sum is an ``fsum``.
    """
    n, d0 = zero_basis.shape
    with mpmath.workdps(dps):
        eta, u = mpmath.eigsy(_mp_matrix(h_total))
        v = [[mpmath.mpf(x) for x in row] for row in zero_basis.T.tolist()]
        w = [
            [mpmath.fsum(v[a][i] * u[i, m] for i in range(n)) * u[0, m] for m in range(n)]
            for a in range(d0)
        ]
        series = []
        for t in grid.times.tolist():
            cos = [mpmath.cos(e * t) for e in eta]
            sin = [mpmath.sin(e * t) for e in eta]
            watched = mpmath.fsum(
                mpmath.fsum(wa[m] * cos[m] for m in range(n)) ** 2
                + mpmath.fsum(wa[m] * sin[m] for m in range(n)) ** 2
                for wa in w
            )
            series.append(float(1 - watched))
    return np.array(series)


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


def dominant_effective_matrix(result) -> np.ndarray:
    """The dense N x N effective Hamiltonian of a ``ScenarioResult``'s
    classified order (zeros for an order without one)."""
    if result.classification.order is QzdOrder.ZEROTH:
        return result.order0.matrix
    if result.classification.order is QzdOrder.FIRST:
        return result.order1.matrix
    return np.zeros_like(result.order0.matrix)


def align_signs(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """``vectors`` with each column negated where its overlap with the same
    column of ``reference`` is negative (a 1-d array is one column).
    Eigenvectors are defined up to sign; aligned, they compare entry by entry."""
    return vectors * np.where(np.sum(vectors * reference, axis=0) < 0.0, -1.0, 1.0)


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


def dense_scenario(
    h_watch: np.ndarray,
    h_weak: np.ndarray,
    h_total: np.ndarray,
    lam: float,
    times: np.ndarray,
    rtol: float = 1e-8,
) -> tuple[str, int, float, float]:
    """Order, d0, default window and delta of |1> from dense eighs.

    The zero level and both effective Hamiltonians come from
    ``eigenvector_sum_effective``. The order is zeroth when the order-0 term
    fails to commute with |1><1| by more than rtol ||H_weak||, first when
    the order-0 term is rtol-proportional to P0 and the order-1 term fails
    to commute by more than rtol times its scale; other chains are not
    handled. The window is 2 pi over the smallest gap above rtol max|e|
    among the eigenvalues e of that order's d0 x d0 block. delta is the
    largest 1 - <psi(t)|P0|psi(t)> over ``times``, with psi(t) from a dense
    eigh of H_total and one exponential per eigenvalue and time.
    """
    p0, m0, m1, min_eta = eigenvector_sum_effective(h_watch, h_weak, lam, rtol)
    d0 = round(float(np.trace(p0)))
    rho = np.zeros_like(p0)
    rho[0, 0] = 1.0
    h_norm = float(np.linalg.norm(h_weak))
    comm0 = np.linalg.norm(m0 @ rho - rho @ m0)
    comm1 = np.linalg.norm(m1 @ rho - rho @ m1)
    proportional = np.linalg.norm(m0 - np.trace(m0) / d0 * p0) <= rtol * h_norm
    if comm0 > rtol * h_norm:
        order, matrix = "zeroth", m0
    elif proportional and comm1 > rtol * lam * h_norm**2 / min_eta:
        order, matrix = "first", m1
    else:
        raise ValueError("dense_scenario handles zeroth and first order chains only")

    v0 = np.linalg.eigh(p0)[1][:, -d0:]
    e = np.linalg.eigvalsh(v0.T @ matrix @ v0)
    gaps = np.diff(e)
    window = 2.0 * np.pi / float(np.min(gaps[gaps > rtol * np.max(np.abs(e))]))

    w, u = np.linalg.eigh(h_total)
    amps = ((v0.T @ u) * u[0]) @ np.exp(-1j * np.outer(w, times))
    delta = float(np.max(1.0 - np.sum(np.abs(amps) ** 2, axis=0)))
    return order, d0, window, delta


def det_tridiag(m: SymTridiagMatrix) -> float:
    """Determinant via the three-term continuant recursion.

    theta_i = a_i theta_(i-1) - b_(i-1)^2 theta_(i-2), run on m scaled by a
    power of two to max|entry| < 1; the pair (theta_(i-1), theta_i) is scaled
    back into [2^-500, 2^500] whenever it leaves that range, and the binary
    exponent is carried separately. Scaling by powers of two is exact: an
    exactly singular m still gives exactly 0.0, and wherever the plain
    recursion neither overflows nor underflows the result is bit for bit
    its own. NumericalFailureError, giving log10|det|, when the determinant
    lies outside the normal double range.
    """
    n = m.size
    shift = math.frexp(m.max_abs_entry())[1]
    a = np.ldexp(m.diag, -shift).tolist()
    b2 = (np.ldexp(m.offdiag, -shift) ** 2).tolist()
    exp2 = n * shift
    prev, cur = 1.0, a[0]
    for ai, bi2 in zip(a[1:], b2):
        prev, cur = cur, ai * cur - bi2 * prev
        big = max(abs(prev), abs(cur))
        if big and not _CONTINUANT_LOW <= big <= _CONTINUANT_HIGH:
            e = math.frexp(big)[1]
            prev, cur = math.ldexp(prev, -e), math.ldexp(cur, -e)
            exp2 += e
    if cur == 0.0:
        return cur
    mantissa, e = math.frexp(cur)  # |det| = |mantissa| 2^exp2, |mantissa| in [1/2, 1)
    exp2 += e
    if not sys.float_info.min_exp <= exp2 <= sys.float_info.max_exp:
        log10_det = (math.log2(abs(mantissa)) + exp2) * math.log10(2.0)
        raise NumericalFailureError(
            f"determinant of the {n}x{n} tridiagonal matrix is outside the double "
            f"range: log10|det| = {log10_det:.1f}"
        )
    return math.ldexp(mantissa, exp2)


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


def u1_correction_trace(
    corrections: FirstOrderCorrections,
    lam: float,
    tau_grid: TimeGrid,
    psi0: np.ndarray | None = None,
) -> np.ndarray:
    """Squared norm of the first-order propagator correction on psi0.

    The correction operator at rescaled time tau is
    lam * sum_s exp(-i eta_s tau) (|s1><s0| + |s0><s1|) over all eigenstates
    s with unperturbed vector |s0> and first-order correction |s1>; its peak
    on psi0 (default |1>) estimates the leakage delta. The phases are
    eta0 + lam eta1, and the two zero states' also carry their second-order
    shifts, the only surviving ones. One exponential per state and sample
    time.
    """
    base, corr = corrections.states, corrections.corrections
    if psi0 is None:
        psi0 = np.eye(base.shape[0])[0]
    psi0 = check_state(psi0, base.shape[0], "psi0")

    eta = corrections.eta0 + lam * corrections.eta1
    eta[-2:] += lam**2 * corrections.zero_eta2

    phases = np.exp(-1j * np.outer(eta, tau_grid.times))
    c = base.T @ psi0   # <s0|psi0>
    dcoef = corr.T @ psi0   # <s1|psi0>
    series = lam * (corr @ (phases * c[:, None]) + base @ (phases * dcoef[:, None]))
    return np.sum(np.abs(series) ** 2, axis=0)


def leakage_frequency_estimate(d_tot: SpectralDecomposition, n_sites: int) -> float:
    """Dominant angular frequency of the leakage oscillation, even chains.

    Taken from the exact spectrum of the full Hamiltonian: the gap between
    the lowest positive interior eigenvalue and the zero-level eigenvalue it
    beats against (the symmetric end combination when N/2 - 1 is odd, the
    antisymmetric one otherwise).
    """
    if n_sites % 2 != 0 or n_sites < 4:
        raise UnsupportedConfigurationError(
            "leakage frequency estimate is defined for even chains"
        )
    if d_tot.size != n_sites:
        raise ValidationError("decomposition size does not match n_sites")

    w, v = d_tot.eigenvalues, d_tot.eigenvectors
    # ascending spectrum: (N-2)/2 negatives, the split zero pair, positives
    pair = [n_sites // 2 - 1, n_sites // 2]
    sym = np.zeros(n_sites)
    sym[0] = sym[-1] = 1.0 / np.sqrt(2.0)
    sym_weights = [abs(sym @ v[:, i]) for i in pair]
    alpha = pair[int(np.argmax(sym_weights))]
    beta = pair[1 - int(np.argmax(sym_weights))]

    interior_plus = w[n_sites // 2 + 1]
    partner = alpha if (n_sites // 2 - 1) % 2 == 1 else beta
    return float(abs(interior_plus - w[partner]))


def dominant_angular_frequency(values: np.ndarray, dt: float) -> float:
    """Angular frequency of the strongest nonzero Fourier mode of a series."""
    values = np.asarray(values, dtype=float) - float(np.mean(values))
    spectrum = np.abs(np.fft.rfft(values))
    if spectrum.size < 2:
        raise ValidationError("series too short for a frequency estimate")
    k = 1 + int(np.argmax(spectrum[1:]))
    return 2.0 * np.pi * k / (dt * values.size)
