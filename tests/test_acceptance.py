"""End-to-end acceptance checks.

Each test prints one `[acceptance] ... PASS/FAIL` line (run with `-s` to see
them all). Most assert the published quantitative targets at their stated
tolerances. The criterion-6 slope is checked instead against an independent
referee on the stated grid (see `test_criterion_06_sweep_slope`): that grid
measures about 4.007, not the nominal constant 4.3, which holds on longer
chains.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from zenochain.analytic import (
    DELTA_FIT_COEFF,
    hqzd1_even,
    hqzd1_odd_modified,
    qtilde_fluctuating_corner,
    toeplitz_eigenpair,
)
from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from zenochain.dynamics import simulate
from zenochain.errors import SingularMatrixError
from zenochain.harness import run_fluctuation_trials, run_scenario, run_sweep
from zenochain.linalg import (
    det_tridiag,
    eig_sym_tridiag,
    evolve_grid,
    invert_tridiag,
)
from zenochain.perturbation import (
    couple_zero_level,
    default_grouping_tolerance,
    group_levels,
    hqzd_order1,
    reduced_resolvent,
)
from zenochain.qzd import QzdOrder, classify

from .oracles import expm_leakage_peak

K = 1.0


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def _timed_scenario(spec: ChainSpec):
    t0 = time.perf_counter()
    result = run_scenario(spec)
    return result, time.perf_counter() - t0


def test_criterion_01_four_site_weak_watching():
    result, elapsed = _timed_scenario(ChainSpec(4, 5.0))
    delta = result.leakage.delta
    ok = abs(delta - 0.138) <= 0.005 and elapsed < 1.0
    _report(
        "criterion 1",
        ok,
        f"N=4 ratio=5: delta={delta:.4f} target 0.138+-0.005, runtime={elapsed:.2f}s",
    )
    assert abs(delta - 0.138) <= 0.005
    assert elapsed < 1.0


def test_criterion_02_four_site_strong_watching():
    result, elapsed = _timed_scenario(ChainSpec(4, 20.0))
    delta = result.leakage.delta
    effective = hqzd1_even(4, K, 1.0 / 20.0)
    eff_trace = simulate(effective, np.eye(4)[0], result.trace.grid, result.zero_basis)
    dev = max(
        float(np.max(np.abs(result.trace.populations[:, s] - eff_trace.populations[:, s])))
        for s in (0, 3)
    )
    ok = abs(delta - 0.010) <= 0.003 and dev <= 0.05 and elapsed < 1.0
    _report(
        "criterion 2",
        ok,
        f"N=4 ratio=20: delta={delta:.4f} target 0.010+-0.003, "
        f"end-population deviation={dev:.4f} limit 0.05, runtime={elapsed:.2f}s",
    )
    assert abs(delta - 0.010) <= 0.003
    assert dev <= 0.05
    assert elapsed < 1.0


def test_criterion_03_thirty_site_leakage():
    result, elapsed = _timed_scenario(ChainSpec(30, 20.0))
    delta = result.leakage.delta
    ok = delta > 0.1 and elapsed < 5.0
    _report(
        "criterion 3",
        ok,
        f"N=30 ratio=20: delta={delta:.4f} target >0.1, runtime={elapsed:.2f}s",
    )
    assert delta > 0.1
    assert elapsed < 5.0


def test_criterion_04_modified_five_site():
    result, elapsed = _timed_scenario(ChainSpec(5, 20.0, delta_omega=20.0))
    delta = result.leakage.delta
    order = result.classification.order
    ok = order is QzdOrder.FIRST and abs(delta - 0.023) <= 0.005 and elapsed < 1.0
    _report(
        "criterion 4",
        ok,
        f"modified N=5: order={order.value} target first, "
        f"delta={delta:.4f} target 0.023+-0.005, runtime={elapsed:.2f}s",
    )
    assert order is QzdOrder.FIRST
    assert abs(delta - 0.023) <= 0.005
    assert elapsed < 1.0


def test_criterion_05_hundred_site_bound_operating_point():
    t0 = time.perf_counter()
    at_bound = run_scenario(ChainSpec(100, 42.23)).leakage.delta
    below_bound = run_scenario(ChainSpec(100, 20.0)).leakage.delta
    elapsed = time.perf_counter() - t0
    ok = abs(at_bound - 0.10) <= 0.01 and below_bound > 0.1 and elapsed < 60.0
    _report(
        "criterion 5",
        ok,
        f"N=100: delta(42.23)={at_bound:.4f} target 0.10+-0.01, "
        f"delta(20)={below_bound:.4f} target >0.1, runtime={elapsed:.1f}s",
    )
    assert abs(at_bound - 0.10) <= 0.01
    assert below_bound > 0.1
    assert elapsed < 60.0


STATED_G = (0.05, 0.10, 0.15, 0.20)
STATED_N = tuple(range(4, 31, 2))
# run_sweep samples each cell's transfer cycle in 4000 steps by default
STATED_STEPS = 4000
# rounding between the program's spectral evolution and the referee's
# stepped propagator; they agree to about 1e-12
REFEREE_SLACK = 1e-9


@pytest.fixture(scope="module")
def stated_grid_sweep():
    t0 = time.perf_counter()
    result = run_sweep(list(STATED_G), list(STATED_N))
    return result, time.perf_counter() - t0


def _referee_peak_profile(n: int) -> float:
    """f(N): the largest |tan(m pi / (N-1))| / sqrt(N-1) over the interior modes m."""
    modes = np.arange(1, n - 1)
    return float(np.max(np.abs(np.tan(modes * np.pi / (n - 1))))) / np.sqrt(n - 1)


def _referee_dense_chain(n: int, lambda_inv: float) -> np.ndarray:
    """Dense H: weak end bonds K, strong interior bonds lambda_inv * K."""
    bonds = np.full(n - 1, lambda_inv * K)
    bonds[0] = bonds[-1] = K
    return np.diag(bonds, 1) + np.diag(bonds, -1)


@pytest.fixture(scope="module")
def stated_grid_referee():
    """Per-cell (sampled, exact local) leakage peaks on the stated grid.

    Built without zenochain: lambda_inv = f(N) / G, psi(0) = |1>, the ends
    watched, one transfer cycle pi * lambda_inv / K in STATED_STEPS steps.
    """
    peaks = {}
    for g in STATED_G:
        for n in STATED_N:
            lambda_inv = _referee_peak_profile(n) / g
            peaks[(g, n)] = expm_leakage_peak(
                _referee_dense_chain(n, lambda_inv),
                np.eye(n)[0],
                [0, n - 1],
                np.pi * lambda_inv / K,
                STATED_STEPS,
            )
    return peaks


def _referee_slope(peaks, which: int) -> float:
    """Least squares of the per-G mean peak against G^2, through the origin."""
    x = np.array(STATED_G) ** 2
    y = np.array(
        [np.mean([peaks[(g, n)][which] for n in STATED_N]) for g in STATED_G]
    )
    return float(np.sum(x * y) / np.sum(x * x))


def test_criterion_06_sweep_slope(stated_grid_sweep, stated_grid_referee):
    # The sweep must measure the quadratic law delta ~ c * G^2 on the stated
    # grid. There c is about 4.007, not the nominal DELTA_FIT_COEFF = 4.3:
    # delta/G^2 climbs from 4 at N=4 toward pi^2/2 with N, and the saturating
    # G=0.2 line dominates a fit through the origin. The nominal constant is
    # pinned on the long grid in test_harness.py. So every cell's delta and
    # the slope must lie between the referee's grid-sampled peak and its
    # exact local peak; the upper end admits a refined peak search.
    result, elapsed = stated_grid_sweep
    peaks = stated_grid_referee
    window = (_referee_slope(peaks, 0), _referee_slope(peaks, 1))

    cells = [(row.g, row.n_sites) for row in result.rows]
    stray = []
    for row in result.rows:
        sampled, exact = peaks[(row.g, row.n_sites)]
        if not sampled - REFEREE_SLACK <= row.delta <= exact + REFEREE_SLACK:
            stray.append(f"G={row.g} N={row.n_sites}: {row.delta!r}")
    in_window = (
        window[0] - REFEREE_SLACK <= result.slope <= window[1] + REFEREE_SLACK
    )
    ratios = ", ".join(
        f"G={g}: {m / g**2:.3f}" for g, m in zip(result.g_values, result.mean_delta)
    )
    ok = cells == list(peaks) and not stray and in_window and elapsed < 300.0
    _report(
        "criterion 6 (slope)",
        ok,
        f"slope={result.slope:.6f}, referee window [{window[0]:.6f}, "
        f"{window[1]:.6f}] on G in {{0.05..0.2}}, even N 4-30 "
        f"(nominal DELTA_FIT_COEFF={DELTA_FIT_COEFF}); mean delta/G^2 per G: "
        f"{ratios}; cells outside their window: {stray or 'none'}; "
        f"runtime={elapsed:.1f}s",
    )
    assert elapsed < 300.0
    assert cells == list(peaks)
    assert not stray
    assert in_window


def test_criterion_06_sweep_flatness(stated_grid_sweep):
    result, _ = stated_grid_sweep
    worst = max(result.flatness)
    ok = worst <= 0.15
    _report(
        "criterion 6 (flatness)",
        ok,
        f"max per-G deviation {worst:.3f} limit 0.15",
    )
    assert worst <= 0.15


def test_criterion_07_oracle_equivalence():
    worst_even = 0.0
    worst_resolvent = 0.0
    for n in range(4, 21, 2):
        lam = 1.0 / 9.0
        hams = build_chain(ChainSpec(n, 9.0))
        d = eig_sym_tridiag(hams.h_watch)
        ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
        qtilde = reduced_resolvent(ps)
        coupling = couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense())
        rep = hqzd_order1(coupling, hams.h_watch, lam)
        worst_even = max(
            worst_even, float(np.max(np.abs(rep.matrix - hqzd1_even(n, K, lam))))
        )
        inv = invert_tridiag(interior_block(hams.h_watch))
        embedded = np.zeros((n, n))
        embedded[1:-1, 1:-1] = -inv
        worst_resolvent = max(worst_resolvent, float(np.max(np.abs(qtilde - embedded))))

    worst_odd = 0.0
    for n in (5, 7, 9):
        for lam_inv in (20.0, 50.0):
            dw = lam_inv * K
            hams = build_chain(ChainSpec(n, lam_inv, delta_omega=dw))
            d = eig_sym_tridiag(hams.h_watch)
            ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
            rep = hqzd_order1(
                couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense()),
                hams.h_watch,
                1.0 / lam_inv,
            )
            worst_odd = max(
                worst_odd,
                float(np.max(np.abs(rep.matrix - hqzd1_odd_modified(n, K, dw)))),
            )

    ok = worst_even < 1e-10 and worst_odd < 1e-8 and worst_resolvent < 1e-10
    _report(
        "criterion 7",
        ok,
        f"even closed-form gap={worst_even:.2e} limit 1e-10, "
        f"modified-odd gap={worst_odd:.2e} limit 1e-8, "
        f"resolvent-vs-inverse gap={worst_resolvent:.2e} limit 1e-10",
    )
    assert worst_even < 1e-10
    assert worst_odd < 1e-8
    assert worst_resolvent < 1e-10


def test_criterion_08_classification_table():
    def order_of(spec: ChainSpec) -> QzdOrder:
        hams = build_chain(spec)
        psi0 = np.eye(spec.n_sites)[0]
        return classify(hams.h_watch, hams.h_weak, psi0, lam=spec.lam).order

    wrong = []
    for n in range(4, 31, 2):
        if order_of(ChainSpec(n, 5.0)) is not QzdOrder.FIRST:
            wrong.append(f"even {n}")
    for n in range(5, 30, 2):
        if order_of(ChainSpec(n, 5.0)) is not QzdOrder.ZEROTH:
            wrong.append(f"odd {n}")
        if order_of(ChainSpec(n, 20.0, delta_omega=20.0)) is not QzdOrder.FIRST:
            wrong.append(f"modified {n}")
    _report(
        "criterion 8",
        not wrong,
        "even 4-30 first, odd 5-29 zeroth, modified odd first"
        + (f"; mismatches: {wrong}" if wrong else ""),
    )
    assert not wrong


def test_criterion_09_property_suites():
    # unitarity / norm conservation
    norm_drift = 0.0
    energy_bound_ok = True
    for spec in (ChainSpec(4, 5.0), ChainSpec(30, 20.0), ChainSpec(5, 20.0)):
        result = run_scenario(spec, n_steps=1000)
        d = eig_sym_tridiag(result.hams.h_total)
        psi0 = np.zeros(spec.n_sites, dtype=complex)
        psi0[0] = 1.0
        states = evolve_grid(d, psi0, result.trace.grid.times)
        norm_drift = max(
            norm_drift, float(np.max(np.abs(np.linalg.norm(states, axis=0) - 1.0)))
        )
        hw = result.hams.h_watch.to_dense()
        watched = np.einsum("it,ij,jt->t", states.conj(), hw, states).real
        if not np.all(np.abs(watched) <= 2.0 * spec.k * result.trace.leakage + 1e-10):
            energy_bound_ok = False

    # projector completeness / orthogonality
    projector_gap = 0.0
    for spec in (ChainSpec(8, 5.0), ChainSpec(9, 5.0), ChainSpec(5, 20.0, delta_omega=20.0)):
        hams = build_chain(spec)
        d = eig_sym_tridiag(hams.h_watch)
        ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
        total = sum(lvl.projector for lvl in ps.levels)
        projector_gap = max(
            projector_gap, float(np.max(np.abs(total - np.eye(spec.n_sites))))
        )
        for i, a in enumerate(ps.levels):
            for b in ps.levels[i + 1 :]:
                projector_gap = max(
                    projector_gap, float(np.max(np.abs(a.projector @ b.projector)))
                )

    # closed-form eigenpairs against the numeric eigensolver
    eigenpair_gap = 0.0
    for n in range(4, 51):
        block = interior_block(build_chain(ChainSpec(n, 5.0)).h_watch)
        d = eig_sym_tridiag(block)
        pairs = sorted(
            (toeplitz_eigenpair(n, K, m) for m in range(1, n - 1)),
            key=lambda p: p[0],
        )
        for i, (eta, vec) in enumerate(pairs):
            eigenpair_gap = max(eigenpair_gap, abs(eta - d.eigenvalues[i]))
            eigenpair_gap = max(
                eigenpair_gap, float(np.max(np.abs(vec[1:-1] - d.eigenvectors[:, i])))
            )

    # determinant identity for the shift-modified interior block
    det_gap = 0.0
    for n in range(5, 16, 2):
        for lam_inv, dw, k in ((20.0, 20.0, 1.0), (8.0, 3.0, 1.3)):
            block = interior_block(
                build_chain(ChainSpec(n, lam_inv, k=k, delta_omega=dw)).h_watch
            )
            lam_dw = dw / lam_inv
            expect = (-1.0) ** ((n - 3) // 2) * k ** (n - 3) * lam_dw
            det_gap = max(det_gap, abs(det_tridiag(block) - expect) / abs(expect))

    ok = (
        norm_drift <= 1e-12
        and energy_bound_ok
        and projector_gap <= 1e-10
        and eigenpair_gap <= 1e-10
        and det_gap <= 1e-8
    )
    _report(
        "criterion 9",
        ok,
        f"norm drift={norm_drift:.2e} limit 1e-12, watched-energy bound "
        f"{'holds' if energy_bound_ok else 'violated'}, projector gap="
        f"{projector_gap:.2e} limit 1e-10, eigenpair gap={eigenpair_gap:.2e} "
        f"limit 1e-10, determinant identity rel gap={det_gap:.2e} limit 1e-8",
    )
    assert norm_drift <= 1e-12
    assert energy_bound_ok
    assert projector_gap <= 1e-10
    assert eigenpair_gap <= 1e-10
    assert det_gap <= 1e-8


def test_criterion_10_fluctuation_robustness():
    trials = run_fluctuation_trials(10, 0.05, 100, seed=0)
    corners = np.array([t.corner_element for t in trials])
    mean_gap = abs(float(np.mean(np.abs(corners))) - 1.0 / K)

    per_trial_gap = 0.0
    for t in trials:
        spec = ChainSpec(
            10, 20.0, fluctuation=CouplingFluctuation(0.05, t.seed_offset)
        )
        couplings = build_chain(spec).h_watch.offdiag[1:-1]
        per_trial_gap = max(
            per_trial_gap,
            abs(t.corner_element - qtilde_fluctuating_corner(couplings)),
        )

    ok = mean_gap < 0.1 / K and per_trial_gap <= 1e-10
    _report(
        "criterion 10",
        ok,
        f"mean corner gap={mean_gap:.4f} limit 0.1, per-trial route gap="
        f"{per_trial_gap:.2e} limit 1e-10 over 100 trials",
    )
    assert mean_gap < 0.1 / K
    assert per_trial_gap <= 1e-10


def test_odd_unmodified_interior_block_detected_singular():
    # companion to criterion 9: the unmodified odd chain's zero mode makes
    # the interior block singular and the inverter reports it
    block = interior_block(build_chain(ChainSpec(7, 5.0)).h_watch)
    with pytest.raises(SingularMatrixError):
        invert_tridiag(block)
