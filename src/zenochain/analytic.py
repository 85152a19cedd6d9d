"""Closed-form expressions for chain spectra and effective Hamiltonians.

Every function here has a numerical counterpart elsewhere in the package;
the analytic forms double as fast paths and as oracles in the test suite.
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
    """Smallest coupling ratio keeping the leakage below delta0.

    lambda_inv > f(N) * sqrt(DELTA_FIT_COEFF / delta0); only valid for
    delta0 below DELTA_FIT_LIMIT, where the quadratic fit holds.
    """
    if not 0.0 < delta0 < DELTA_FIT_LIMIT:
        raise ValidationError(
            f"delta0: quadratic leakage fit is only valid for 0 < delta0 < {DELTA_FIT_LIMIT}"
        )
    return f_of_n(n_sites) * float(np.sqrt(DELTA_FIT_COEFF / delta0))


def qtilde_fluctuating_corner(couplings: np.ndarray) -> float:
    """Corner element <2|Qtilde|N-1> of a fluctuating even chain.

    ``couplings`` lists the interior bond strengths k_2 .. k_{N-2} (bond i
    joins sites i and i+1, 1-based). The element is
    (-1)^(N/2 - 1) * (prod over odd i of k_i) / (prod over even i of k_i),
    so the noise largely cancels between numerator and denominator.
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
    return float(sign * np.prod(odd) / np.prod(even))
