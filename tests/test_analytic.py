"""Closed forms against their numerical counterparts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zenochain.analytic import (
    DELTA_FIT_COEFF,
    big_g,
    delta_estimate,
    delta_exact_n4,
    f_of_n,
    g_n,
    hqzd0_odd,
    hqzd1_even,
    hqzd1_odd_modified,
    lambda_bound,
    leakage_bound,
    phi_mid,
    qtilde_fluctuating_corner,
    toeplitz_eigenpair,
)
from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from zenochain.errors import ValidationError
from zenochain.harness import run_scenario
from zenochain.linalg import eig_sym_tridiag
from zenochain.perturbation import (
    group_levels,
    hqzd_order0,
    hqzd_order1,
)

from .oracles import (
    align_signs, default_grouping_tolerance, expm_leakage_peak, gaussian_elimination_inverse
)

K = 1.0


def projector_route_order1(spec: ChainSpec) -> np.ndarray:
    hams = build_chain(spec)
    d = eig_sym_tridiag(hams.h_watch)
    ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
    return spec.lam * hqzd_order1(ps.zero_level.vectors, hams.h_weak, hams.h_watch).matrix


class TestToeplitzEigenpairs:
    def test_four_site_pair(self):
        eta1, _ = toeplitz_eigenpair(4, K, 1)
        eta2, _ = toeplitz_eigenpair(4, K, 2)
        assert eta1 == pytest.approx(K)
        assert eta2 == pytest.approx(-K)

    def test_odd_chain_has_extra_zero_mode(self):
        eta, vec = toeplitz_eigenpair(5, K, 2)
        assert eta == pytest.approx(0.0, abs=1e-15)
        # the zero mode alternates over even sites
        assert_allclose(vec, phi_mid(5), atol=1e-12)

    @pytest.mark.parametrize("n_sites", range(4, 51))
    def test_matches_numeric_eigensolver(self, n_sites):
        watch = build_chain(ChainSpec(n_sites, 5.0)).h_watch
        d = eig_sym_tridiag(interior_block(watch))
        pairs = [toeplitz_eigenpair(n_sites, K, n) for n in range(1, n_sites - 1)]
        pairs.sort(key=lambda p: p[0])
        for i, (eta, vec) in enumerate(pairs):
            assert abs(eta - d.eigenvalues[i]) < 1e-10
            col = align_signs(d.eigenvectors[:, i], vec[1:-1])
            assert np.max(np.abs(vec[1:-1] - col)) < 1e-10

    def test_eigen_equation_on_full_watch_matrix(self):
        watch = build_chain(ChainSpec(12, 5.0)).h_watch
        for n in (1, 5, 10):
            eta, vec = toeplitz_eigenpair(12, K, n)
            assert np.max(np.abs(watch.matvec(vec) - eta * vec)) < 1e-10
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_index_range_checked(self):
        with pytest.raises(ValidationError):
            toeplitz_eigenpair(6, K, 0)
        with pytest.raises(ValidationError):
            toeplitz_eigenpair(6, K, 5)


class TestPhiMid:
    def test_five_site(self):
        assert_allclose(phi_mid(5), [0, 1, 0, -1, 0] / np.sqrt(2))

    def test_seven_site(self):
        assert_allclose(phi_mid(7), [0, 1, 0, -1, 0, 1, 0] / np.sqrt(3))

    @pytest.mark.parametrize("n_sites", range(5, 30, 2))
    def test_in_watch_kernel_and_normalized(self, n_sites):
        watch = build_chain(ChainSpec(n_sites, 5.0)).h_watch
        vec = phi_mid(n_sites)
        assert np.max(np.abs(watch.matvec(vec))) < 1e-12
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert vec[0] == 0.0 and vec[-1] == 0.0

    def test_even_rejected(self):
        with pytest.raises(ValidationError):
            phi_mid(6)


class TestOddOrder0ClosedForm:
    @pytest.mark.parametrize("n_sites", (5, 7, 9, 13))
    def test_matches_projector_route(self, n_sites):
        hams = build_chain(ChainSpec(n_sites, 5.0))
        d = eig_sym_tridiag(hams.h_watch)
        ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
        rep = hqzd_order0(ps.zero_level.vectors, hams.h_weak)
        assert np.max(np.abs(rep.matrix - hqzd0_odd(n_sites, K))) < 1e-10

    def test_nine_site_coupling_magnitude(self):
        # <1|H_eff0|phi_mid> = k / sqrt((N-1)/2) = k/2 for N = 9
        m = hqzd0_odd(9, K)
        assert abs(float(m[0] @ phi_mid(9))) == pytest.approx(K / 2)

    @pytest.mark.parametrize("n_sites", (5, 7, 9, 11))
    def test_no_direct_end_to_end_term(self, n_sites):
        m = hqzd0_odd(n_sites, K)
        assert m[0, -1] == 0.0


class TestEvenOrder1ClosedForm:
    def test_four_site_sign(self):
        m = hqzd1_even(4, K, 0.2)
        assert m[0, -1] == pytest.approx(-0.2 * K)

    @pytest.mark.parametrize("n_sites", (4, 6, 8, 12, 16, 20, 30))
    def test_matches_projector_route(self, n_sites):
        lam = 1.0 / 9.0
        got = projector_route_order1(ChainSpec(n_sites, 9.0))
        assert np.max(np.abs(got - hqzd1_even(n_sites, K, lam))) < 1e-10

    def test_sign_alternates_between_consecutive_even_lengths(self):
        signs = [np.sign(hqzd1_even(n, K, 0.1)[0, -1]) for n in range(4, 21, 2)]
        assert all(a * b == -1.0 for a, b in zip(signs, signs[1:]))

    def test_odd_rejected(self):
        with pytest.raises(ValidationError):
            hqzd1_even(5, K, 0.1)


class TestModifiedOddOrder1ClosedForm:
    def test_five_site_entries(self):
        m = hqzd1_odd_modified(5, K, 20.0)
        assert m[0, -1] == pytest.approx(1.0 / 20.0)
        assert m[0, 0] == pytest.approx(-1.0 / 20.0)
        assert m[-1, -1] == pytest.approx(-1.0 / 20.0)

    def test_seven_site_off_diagonal_sign(self):
        assert hqzd1_odd_modified(7, K, 10.0)[0, -1] == pytest.approx(-0.1)

    @pytest.mark.parametrize("n_sites", (5, 7, 9))
    @pytest.mark.parametrize("lambda_inv", (20.0, 50.0))
    def test_matches_projector_route(self, n_sites, lambda_inv):
        dw = lambda_inv * K
        got = projector_route_order1(ChainSpec(n_sites, lambda_inv, delta_omega=dw))
        assert np.max(np.abs(got - hqzd1_odd_modified(n_sites, K, dw))) < 1e-8

    def test_zero_shift_rejected(self):
        with pytest.raises(ValidationError):
            hqzd1_odd_modified(5, K, 0.0)


class TestMixingProfile:
    def test_f_of_four_is_one(self):
        assert f_of_n(4) == pytest.approx(1.0, abs=1e-14)

    def test_f_monotonically_increasing(self):
        values = [f_of_n(n) for n in range(4, 101, 2)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_big_g_is_max_mixing_coefficient(self):
        for n_sites in (4, 6, 10, 24):
            lam = 0.07
            coeffs = [abs(g_n(n_sites, lam, n)) for n in range(1, n_sites - 1)]
            assert big_g(n_sites, lam) == pytest.approx(max(coeffs), abs=1e-12)
            peak = 1 + int(np.argmax(coeffs))
            assert peak in (n_sites // 2 - 1, n_sites // 2)

    def test_delta_estimate_four_site(self):
        assert delta_estimate(4, 1.0 / 20.0) == pytest.approx(0.01075, abs=1e-5)

    def test_bound_examples(self):
        assert lambda_bound(4, 0.1) == pytest.approx(np.sqrt(43.0), abs=1e-12)
        assert lambda_bound(4, 0.1) == pytest.approx(6.557, abs=1e-3)
        # estimate at the bound returns exactly delta0
        n, delta0 = 12, 0.05
        li = lambda_bound(n, delta0)
        assert delta_estimate(n, 1.0 / li) == pytest.approx(delta0, rel=1e-12)

    def test_bound_validity_window(self):
        with pytest.raises(ValidationError):
            lambda_bound(10, 0.25)
        with pytest.raises(ValidationError):
            lambda_bound(10, 0.0)
        # DELTA_FIT_COEFF / delta0 overflows to inf; the bound was inf
        for delta0 in (1e-320, 5e-324):
            with pytest.raises(ValidationError, match="^delta0: "):
                lambda_bound(30, delta0)

    def test_fit_constant_value(self):
        assert DELTA_FIT_COEFF == 4.3

    def test_fitted_bound_lets_delta_exceed_delta0(self):
        # the paper's fitted f(N) sqrt(4.3 / delta0), which `bound` prints,
        # is no guarantee: at delta0 = 0.01 (4000 steps) delta / delta0 is
        # 1.008, 1.082 and 1.114 at N = 8, 30 and 100
        for n, ratio in ((8, 1.008), (30, 1.082), (100, 1.114)):
            delta = run_scenario(ChainSpec(n, lambda_bound(n, 0.01)), 4000).leakage.delta
            assert delta / 0.01 == pytest.approx(ratio, abs=1e-3)

    @pytest.mark.parametrize("n", [4, 6, 8, 30, 100, 250, 500])
    def test_derived_ratio_keeps_delta_below_delta0(self, n):
        # lambda_inv = sqrt(2 (N-2) / delta0), from the first-order leakage
        # 2 (N-2) lam^2 of an even chain, keeps delta <= delta0 (16000 steps;
        # the largest delta / delta0 was 0.9999, at N = 4, delta0 = 1e-4)
        for delta0 in (1e-4, 1e-3, 1e-2, 0.1):
            spec = ChainSpec(n, float(np.sqrt(2.0 * (n - 2) / delta0)))
            assert run_scenario(spec, 16000).leakage.delta <= 0.99991 * delta0


class TestLeakageBound:
    """The first-order leakage law 2 (N-2) lam^2 of even chains, derived."""

    def test_tan_squared_sum(self):
        # sum_{n=1}^{N-2} tan^2(n pi / (N-1)) = (N-1)(N-2) at every even N
        for n_sites in range(4, 2001, 2):
            m = n_sites - 1
            total = np.sum(np.tan(np.arange(1, n_sites - 1) * np.pi / m) ** 2)
            assert total == pytest.approx(m * (n_sites - 2), rel=1e-12), n_sites

    @pytest.mark.parametrize("n_sites", [4, 6, 30, 800])
    def test_twice_the_mixing_coefficients_squared(self, n_sites):
        lam = 0.01
        total = 2.0 * sum(g_n(n_sites, lam, n) ** 2 for n in range(1, n_sites - 1))
        assert leakage_bound(n_sites, lam) == pytest.approx(total, rel=1e-12)

    def test_over_g_squared_is_c_of_n(self):
        # c(N) = 2 (N-2) / f(N)^2: 4 at N = 4, rising toward pi^2 / 2
        c = [leakage_bound(n, 1.0 / f_of_n(n)) for n in (4, 8, 30, 100, 800)]
        assert_allclose(c, [4.0, 4.376, 4.774, 4.886, 4.929], atol=1e-3)
        assert all(a < b < np.pi**2 / 2 for a, b in zip(c, c[1:]))

    def test_four_site_exact_peak_lies_below(self):
        for lam in (1e-4, 0.05, 0.5):
            assert delta_exact_n4(lam) < leakage_bound(4, lam)
            assert delta_exact_n4(lam) / leakage_bound(4, lam) == pytest.approx(
                1.0 / (1.0 + 4.0 * lam * lam), rel=1e-14
            )

    def test_odd_chain_rejected(self):
        with pytest.raises(ValidationError, match="^n_sites: "):
            leakage_bound(5, 0.01)

    @given(st.integers(2, 400), st.floats(-3.0, np.log10(0.2)))
    @example(2, -3.0)
    @example(2, np.log10(0.003))
    @example(400, np.log10(0.2))
    @settings(max_examples=40, deadline=None)
    def test_bounds_the_measured_leakage(self, half, log_g):
        # delta / bound over even N 4-800 and G in [1e-3, 0.2] read at most
        # 0.999996 (N = 4, G = 1e-3). The sampled peak of the window's 1/lam^2
        # fast oscillations reads low: at G <= 0.003 it is at least 0.9996 of
        # the bound at N = 4 but dips to 0.997 at N = 6 and 0.973 at N = 8
        n_sites, g = 2 * half, 10.0**log_g
        lam = g / f_of_n(n_sites)
        delta = run_scenario(ChainSpec(n_sites, 1.0 / lam)).leakage.delta
        ratio = delta / leakage_bound(n_sites, lam)
        assert ratio <= 1.0
        if n_sites == 4 and g <= 0.003:
            assert ratio >= 0.999


FOUR_SITE_CASES = [(1.0, 20.0), (2.0, 7.0), (0.3, 3.0), (5.0, 1.5)]


class TestFourSiteExactPeak:
    @pytest.mark.parametrize("k, lambda_inv", FOUR_SITE_CASES)
    def test_matches_refined_expm_peak(self, k, lambda_inv):
        hams = build_chain(ChainSpec(4, lambda_inv, k=k))
        grid = run_scenario(hams.spec).grid
        psi0 = np.eye(4)[0]
        _, refined = expm_leakage_peak(
            hams.h_total.to_dense(), psi0, [0, 3], grid.t_max, grid.n_steps
        )
        assert refined == pytest.approx(delta_exact_n4(1.0 / lambda_inv), rel=1e-10)

    @pytest.mark.parametrize("k, lambda_inv", FOUR_SITE_CASES)
    def test_bounds_sampled_scenario_peak(self, k, lambda_inv):
        # the grid-sampled delta sits just below the exact peak, never above
        exact = delta_exact_n4(1.0 / lambda_inv)
        delta = run_scenario(ChainSpec(4, lambda_inv, k=k)).leakage.delta
        assert exact * (1.0 - 1e-5) <= delta <= exact * (1.0 + 1e-12)


class TestFluctuatingCorner:
    def test_uniform_couplings(self):
        for n_sites in (4, 6, 8, 10):
            value = qtilde_fluctuating_corner(np.full(n_sites - 3, K))
            sign = (-1.0) ** (n_sites // 2 - 1)
            assert value == pytest.approx(sign / K)

    def test_six_site_example(self):
        assert qtilde_fluctuating_corner([1.0, 2.0, 1.0]) == pytest.approx(2.0)

    def test_homogeneity(self):
        base = qtilde_fluctuating_corner([0.9, 1.2, 1.1])
        scaled = qtilde_fluctuating_corner([2 * 0.9, 2 * 1.2, 2 * 1.1])
        assert scaled == pytest.approx(base / 2.0)

    def test_matches_inversion_route(self):
        rng = np.random.default_rng(11)
        for n_sites in (6, 10, 14):
            couplings = 1.0 + rng.uniform(-0.05, 0.05, n_sites - 3)
            block = build_chain(ChainSpec(n_sites, 5.0)).h_watch
            diag = np.zeros(n_sites - 2)
            off = np.concatenate([couplings])
            from zenochain.linalg import SymTridiagMatrix

            inv = gaussian_elimination_inverse(SymTridiagMatrix(diag, off).to_dense())
            assert qtilde_fluctuating_corner(couplings) == pytest.approx(
                -inv[0, -1], abs=1e-12
            )

    @pytest.mark.parametrize("n_sites", [250, 500, 1000])
    @pytest.mark.parametrize("k", [1e-3, 1.0, 1e3])
    def test_long_chains_match_dense_inverse(self, n_sites, k):
        # either product alone overflows at N = 250, k = 1e3
        for amplitude in (0.05, 0.2):
            spec = ChainSpec(n_sites, 20.0, k=k, fluctuation=CouplingFluctuation(amplitude, 3))
            watch = build_chain(spec).h_watch
            want = -np.linalg.inv(interior_block(watch).to_dense())[0, -1]
            got = qtilde_fluctuating_corner(watch.offdiag[1:-1])
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValidationError):
            qtilde_fluctuating_corner([1.0, 0.0, 1.0])
