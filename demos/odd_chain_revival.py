#!/usr/bin/env python3
"""Why odd chains behave differently, and how to fix them.

Adding a single site to an even chain changes everything: the strong
interior of an odd chain has one extra zero mode, supported on the even
sites with alternating signs. That mode sits inside the watched subspace
and carries population through the middle of the chain at zeroth order, so
the clean end-to-end transfer is lost.

Shifting the on-site energy of site 2 by delta_omega removes the extra zero
mode (the shifted interior block has nonzero determinant) and restores the
end-to-end transfer, now at rate k^2/delta_omega.
"""

import numpy as np

from zenochain import (
    ChainSpec,
    build_chain,
    interior_block,
    phi_mid,
    run_scenario,
)

LAMBDA_INV = 20.0


def unmodified() -> None:
    spec = ChainSpec(n_sites=5, lambda_inv=LAMBDA_INV)
    result = run_scenario(spec)
    trace = result.trace

    print("=== unmodified 5-site chain ===")
    print(f"classified order: {result.classification.order.value}")
    print(f"zero-level dimension: {result.classification.zero_level_dimension}")
    print(f"extra zero mode: {np.round(phi_mid(5), 4)}")
    det = np.linalg.det(interior_block(build_chain(spec).h_watch).to_dense()) + 0.0
    print(f"interior-block determinant: {det:g} (zero mode present)")

    j_half = int(np.argmax(trace.mid_overlap))
    print(
        f"mid-mode population peaks at {trace.mid_overlap[j_half]:.3f} "
        f"(t = {trace.grid.times[j_half]:.2f}): half the population detours "
        "through the chain's middle"
    )


def modified() -> None:
    dw = LAMBDA_INV  # delta_omega = lambda_inv * k
    spec = ChainSpec(n_sites=5, lambda_inv=LAMBDA_INV, delta_omega=dw)
    result = run_scenario(spec)
    trace = result.trace

    print("\n=== same chain with an on-site shift at site 2 ===")
    det = np.linalg.det(interior_block(build_chain(spec).h_watch).to_dense())
    print(f"interior-block determinant: {det:g} (zero mode lifted)")
    print(f"classified order: {result.classification.order.value}")
    print(f"zero-level dimension: {result.classification.zero_level_dimension}")
    print(
        "effective end Hamiltonian elements: "
        f"<1|H|5> = {result.order1.matrix[0, -1]:+.4f}, "
        f"<1|H|1> = {result.order1.matrix[0, 0]:+.4f} "
        f"(both of magnitude k^2/delta_omega = {1.0 / dw:.4f})"
    )

    j_peak = int(np.argmax(trace.populations[:, -1]))
    print(
        f"site-5 population reaches {trace.populations[j_peak, -1]:.4f} at "
        f"t = {trace.grid.times[j_peak]:.1f}"
    )
    print(f"peak leakage delta = {result.leakage.delta:.4f} (< 0.1: transfer is clean)")


def main() -> None:
    unmodified()
    modified()


if __name__ == "__main__":
    main()
