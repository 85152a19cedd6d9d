#!/usr/bin/env python3
"""The quadratic leakage law and the coupling-ratio bound.

The peak leakage of an even chain is governed by a single number
G = lam * f(N), the largest first-order mixing coefficient. Empirically
delta ~ 4.3 * G^2 for delta below 0.2, which inverts into the design rule

    lambda_inv > f(N) * sqrt(4.3 / delta0)

for keeping the leakage under a standard delta0. The script measures delta
over (G, N) grids, fits the quadratic constant, and then tests the bound on
a 100-site chain.

The fitted constant depends mildly on the grid: the ratio delta/G^2 climbs
with N (about 3.96 at N=4, 4.56-4.68 at N=30 for G <= 0.1, rising toward
pi^2/2 ~ 4.93 for small G), so grids reaching longer chains land on the
nominal 4.3 while short-chain grids fit lower (about 4.007 on the stated
grid G in {0.05..0.2} x even N 4-30, where the G=0.2 line also saturates).

The per-N ratio has a derived ceiling: to first order delta <= 2 (N-2) lam^2
(``analytic.leakage_bound``), which over G reads c(N) G^2 with
c(N) = 2 (N-2) / f(N)^2, 4 at N=4 rising toward pi^2/2. Each per-N line
prints delta/G^2 at every G beside c(N).
"""

import numpy as np

from zenochain import ChainSpec, f_of_n, lambda_bound, run_scenario, run_sweep
from zenochain.analytic import leakage_bound


def sweep(g_list, n_list, label: str) -> None:
    result = run_sweep(g_list, n_list)
    print(f"\n=== sweep: {label} ===")
    print("  G      mean delta   4.3*G^2   flatness")
    for g, mean, flat in zip(result.g_values, result.mean_delta, result.flatness):
        print(f"  {g:.2f}  {mean:10.4f}  {4.3 * g * g:8.4f}  {flat:8.3f}")
    print(f"fitted slope of mean delta vs G^2: {result.slope:.3f}")
    print("  N    c(N)   delta/G^2 at G = " + ", ".join(f"{g:.2f}" for g in result.g_values))
    ratios = result.delta / result.g_values[:, None] ** 2
    for j, n in enumerate(result.n_values):
        c = leakage_bound(n, 1.0 / f_of_n(n))
        print(f"  {n:<3d}  {c:5.3f}  " + "  ".join(f"{r:5.3f}" for r in ratios[:, j]))


def bound_check() -> None:
    n, delta0 = 100, 0.1
    li = lambda_bound(n, delta0)
    print(f"\n=== bound check, N = {n}, delta0 = {delta0} ===")
    print(f"f({n}) = {f_of_n(n):.4f}, bound lambda_inv > {li:.2f}")
    for lam_inv, label in ((20.0, "below the bound"), (li, "at the bound"), (round(li) + 5, "above the bound")):
        delta = run_scenario(ChainSpec(n, lam_inv)).leakage.delta
        status = "OK" if delta <= delta0 + 0.005 else "too leaky"
        print(f"  lambda_inv = {lam_inv:6.2f} ({label:15s}): delta = {delta:.4f} [{status}]")


def main() -> None:
    # short-chain grid: fits slightly under the nominal constant
    sweep([0.05, 0.10, 0.15, 0.20], list(range(4, 31, 2)), "G up to 0.20, even N 4-30")
    # longer chains, G below the saturating line: recovers 4.3
    sweep([0.05, 0.10, 0.15], list(range(4, 51, 2)), "G up to 0.15, even N 4-50")
    bound_check()


if __name__ == "__main__":
    main()
