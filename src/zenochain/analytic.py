"""Closed-form expressions for chain spectra and effective Hamiltonians.

Most functions here have a numerical counterpart elsewhere in the package
and are its oracles in the test suite; no program path takes one in place of
a numerical route. ``f_of_n`` and ``lambda_bound`` are definitions the
program reads: the sweep's map from G to lambda, and the ``bound``
subcommand. ``phi_mid``, the uniform odd chain's mid state, is a public
definition and the referee of the watch's interior zero mode.
Site indices in formulas are 1-based to match the ket labels |1>..|N>.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Fitted proportionality constant between the peak leakage and G^2; the
# sweep harness re-estimates it from simulations (see harness.run_sweep).
DELTA_FIT_COEFF = 4.3

# The fit is only trusted below this leakage level.
DELTA_FIT_LIMIT = 0.2


def _require_even(n_sites: int) -> None:
    if n_sites < 4 or n_sites % 2 != 0:
        raise ValidationError("n_sites: must be an even integer >= 4")


def _require_odd(n_sites: int) -> None:
    if n_sites < 5 or n_sites % 2 != 1:
        raise ValidationError("n_sites: must be an odd integer >= 5")


def toeplitz_eigenpair(n_sites: int, k: float, n: int) -> tuple[float, np.ndarray]:
    """Eigenpair n of the watch Hamiltonian's interior Toeplitz block.

    eta_n = 2 k cos(n pi / (N-1)) with the full-chain eigenvector supported
    on the interior: component i (2 <= i <= N-1) proportional to
    sin(n (i-1) pi / (N-1)), normalized by sqrt(2/(N-1)).
    """
    if n_sites < 4:
        raise ValidationError("n_sites: must be >= 4")
    if not 1 <= n <= n_sites - 2:
        raise ValidationError(f"n: must lie in [1, {n_sites - 2}]")
    m = n_sites - 1
    eta = 2.0 * k * np.cos(n * np.pi / m)
    vec = np.zeros(n_sites)
    i = np.arange(2, n_sites)
    vec[1:-1] = np.sqrt(2.0 / m) * np.sin(n * (i - 1) * np.pi / m)
    return float(eta), vec


def phi_mid(n_sites: int) -> np.ndarray:
    """The extra zero mode of an odd chain.

    Supported on the even sites with alternating signs:
    (|2> - |4> + ... ) / sqrt((N-1)/2).
    """
    _require_odd(n_sites)
    vec = np.zeros(n_sites)
    sites = np.arange(2, n_sites, 2)
    vec[sites - 1] = (-1.0) ** np.arange(sites.size)
    return vec / np.sqrt((n_sites - 1) / 2.0)


def hqzd0_odd(n_sites: int, k: float) -> np.ndarray:
    """Leading effective Hamiltonian of an unmodified odd chain.

    Couples each end to the mid zero mode with magnitude k / sqrt((N-1)/2)
    and no direct end-to-end element. The |N> coupling carries the sign of
    phi_mid's last component, (-1)^((N-3)/2).
    """
    _require_odd(n_sites)
    mid = phi_mid(n_sites)
    e1 = np.zeros(n_sites)
    e1[0] = 1.0
    en = np.zeros(n_sites)
    en[-1] = 1.0
    c = k / np.sqrt((n_sites - 1) / 2.0)
    last_sign = -1.0 if ((n_sites - 3) // 2) % 2 else 1.0
    m = np.outer(e1, mid) + last_sign * np.outer(en, mid)
    return c * (m + m.T)


def hqzd1_even(n_sites: int, k: float, lam: float) -> np.ndarray:
    """First-order effective Hamiltonian of an even chain.

    (-1)^(N/2 - 1) * lam * k * (|1><N| + h.c.): a pure end-to-end coupling.
    """
    _require_even(n_sites)
    sign = -1.0 if (n_sites // 2 - 1) % 2 else 1.0
    m = np.zeros((n_sites, n_sites))
    m[0, -1] = m[-1, 0] = sign * lam * k
    return m


def hqzd1_odd_modified(n_sites: int, k: float, delta_omega: float) -> np.ndarray:
    """First-order effective Hamiltonian of a shift-modified odd chain.

    (-1)^((N-1)/2) * (k^2/delta_omega) * (|1><N| + h.c.)
    - (k^2/delta_omega) * (|1><1| + |N><N|).
    """
    _require_odd(n_sites)
    if delta_omega == 0.0:
        raise ValidationError("delta_omega: must be nonzero")
    sign = -1.0 if ((n_sites - 1) // 2) % 2 else 1.0
    c = k * k / delta_omega
    m = np.zeros((n_sites, n_sites))
    m[0, -1] = m[-1, 0] = sign * c
    m[0, 0] = m[-1, -1] = -c
    return m


def f_of_n(n_sites: int) -> float:
    """f(N) = tan((pi/2) (N-2)/(N-1)) / sqrt(N-1), the peak mixing profile."""
    _require_even(n_sites)
    m = n_sites - 1
    return float(np.tan(np.pi / 2.0 * (n_sites - 2) / m) / np.sqrt(m))


def g_n(n_sites: int, lam: float, n: int) -> float:
    """Mixing coefficient g_n = (lam / sqrt(N-1)) tan(n pi / (N-1))."""
    _require_even(n_sites)
    if not 1 <= n <= n_sites - 2:
        raise ValidationError(f"n: must lie in [1, {n_sites - 2}]")
    m = n_sites - 1
    return float(lam / np.sqrt(m) * np.tan(n * np.pi / m))


def big_g(n_sites: int, lam: float) -> float:
    """G = lam * f(N), the largest |g_n| (attained at n = N/2 - 1 or N/2)."""
    return lam * f_of_n(n_sites)


def leakage_bound(n_sites: int, lam: float) -> float:
    """First-order bound 2 (N-2) lam^2 on the peak leakage of an even chain.

    Interior mode n (eta_n = 2 (k/lam) cos(n pi / (N-1)), amplitude
    sqrt(2/(N-1)) sin(n pi / (N-1)) on sites 2 and N-1) couples to the
    zero-level state with |<n|H_weak|psi_P>| = k |u_n(2)| while psi_P
    rotates in span{|1>, |N>} (parity), so to first order it holds at most
    |e^{-i eta_n t} - 1|^2 (k u_n(2) / eta_n)^2 <= 2 g_n^2, with g_n of
    ``g_n``. The leakage is then at most 2 sum_n g_n^2 = (2 lam^2 / (N-1))
    sum_{n=1}^{N-2} tan^2(n pi / (N-1)), and for odd M = N-1,
    sum_{n=1}^{M-1} tan^2(n pi / M) = M (M-1): terms n and M-n are equal,
    and the (M-1)/2 distinct values are the roots in x = tan^2 of
    tan(M theta) / tan(theta) = 0, a polynomial of degree (M-1)/2 in x whose
    roots sum to M (M-1) / 2. So the bound is 2 (N-2) lam^2: G and f(N)
    cancel. Over G = lam f(N) it reads c(N) G^2 with
    c(N) = 2 (N-2) / f(N)^2, which is 4 at N = 4 and tends to pi^2/2; the
    paper's fitted DELTA_FIT_COEFF lies within the range of c(N) on even
    N 4-50. The four-site chain's exact 4 lam^2 / (1 + 4 lam^2) lies below
    it.
    """
    _require_even(n_sites)
    return 2.0 * (n_sites - 2) * lam * lam


def delta_estimate(n_sites: int, lam: float) -> float:
    """Estimated peak leakage DELTA_FIT_COEFF * G(N, lam)^2."""
    g = big_g(n_sites, lam)
    return DELTA_FIT_COEFF * g * g


def delta_exact_n4(lam: float) -> float:
    """Exact peak leakage of the four-site chain, 4 lam^2 / (1 + 4 lam^2).

    Started in |1>, the two interior sites hold the population
    4 lam^2 / (1 + 4 lam^2) * sin^2(W t / 2), W = k sqrt(lam^-2 + 4), so the
    peak does not depend on k and is first reached at t = pi / W, well inside
    the default window pi / (lam k).
    """
    return 4.0 * lam * lam / (1.0 + 4.0 * lam * lam)


def lambda_bound(n_sites: int, delta0: float) -> float:
    """The paper's fitted coupling-ratio bound f(N) * sqrt(DELTA_FIT_COEFF / delta0).

    A fit, not a guarantee: at delta0 = 0.01 (4000 steps) the measured
    delta / delta0 at this lambda_inv is 1.008, 1.082 and 1.114 for N = 8,
    30 and 100. On even chains lambda_inv = sqrt(2 (N-2) / delta0), from the
    first-order leakage 2 (N-2) lam^2, keeps delta <= delta0 (at most 0.9999
    delta0 over N 4-500 and delta0 1e-4 to 0.1, 16000 steps). Only for
    delta0 below DELTA_FIT_LIMIT; one whose bound overflows raises
    ValidationError.
    """
    if not 0.0 < delta0 < DELTA_FIT_LIMIT:
        raise ValidationError(
            f"delta0: quadratic leakage fit is only valid for 0 < delta0 < {DELTA_FIT_LIMIT}"
        )
    bound = f_of_n(n_sites) * float(np.sqrt(DELTA_FIT_COEFF / delta0))
    if not np.isfinite(bound):
        raise ValidationError(
            f"delta0: delta0 = {delta0:g} gives a bound beyond the double range"
        )
    return bound


def qtilde_fluctuating_corner(couplings: np.ndarray) -> float:
    """Corner element <2|Qtilde|N-1> of a fluctuating even chain.

    ``couplings`` lists the interior bond strengths k_2 .. k_{N-2} (bond i
    joins sites i and i+1, 1-based). The element is
    (-1)^(N/2 - 1) * (prod over odd i of k_i) / (prod over even i of k_i),
    so the noise largely cancels between numerator and denominator. It is
    formed as a product of ratios k_3/k_2, k_5/k_4, ... over the last even
    k_{N-2}, which stays finite where either product alone overflows.
    """
    couplings = np.asarray(couplings, dtype=float)
    n_sites = couplings.size + 3
    _require_even(n_sites)
    if np.any(couplings <= 0.0):
        raise ValidationError("couplings: must all be positive")
    bond_index = np.arange(2, n_sites - 1)
    odd = couplings[bond_index % 2 == 1]
    even = couplings[bond_index % 2 == 0]
    sign = -1.0 if (n_sites // 2 - 1) % 2 else 1.0
    return float(sign * np.prod(odd / even[:-1]) / even[-1])
