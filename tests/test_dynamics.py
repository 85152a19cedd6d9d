"""Time evolution traces, leakage measurement, propagator corrections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zenochain.analytic import delta_estimate, g_n, phi_mid
from zenochain.chain import ChainSpec, build_chain
from zenochain.dynamics import (
    TimeGrid,
    default_time_grid,
    leakage_series,
    measure_leakage,
    simulate,
)
from zenochain.errors import UnsupportedConfigurationError, ValidationError
from zenochain.harness import effective_reports, run_scenario
from zenochain.linalg import SpectralDecomposition, SymTridiagMatrix, eig_sym_tridiag, evolve_grid
from zenochain.perturbation import default_grouping_tolerance, group_levels

from .oracles import (
    direct_exp_evolve,
    dominant_angular_frequency,
    first_order_corrections,
    leakage_frequency_estimate,
    u1_correction_trace,
)
from .test_linalg import ORACLE_CHAINS, ORACLE_IDS

K = 1.0


def end_sites(n: int) -> np.ndarray:
    return np.eye(n)[:, [0, -1]]


def end_basis(n: int) -> np.ndarray:
    e1, en = np.eye(n)[0], np.eye(n)[-1]
    return np.column_stack([(e1 + en) / np.sqrt(2), (e1 - en) / np.sqrt(2)])


class TestSimulate:
    def test_effective_two_level_transfer(self):
        # under -lam*k (|1><4| + h.c.) the end populations trade as
        # sin^2(lam k t), with full transfer at t = pi/(2 lam k); in the site
        # order 1, 4, 2, 3 the effective matrix is tridiagonal
        lam = 0.05
        eff = SymTridiagMatrix(np.zeros(4), np.array([-lam * K, 0.0, 0.0]))
        t_transfer = np.pi / (2 * lam * K)
        grid = TimeGrid(2 * t_transfer, 800)
        trace = simulate(eff, np.eye(4)[0], grid, np.eye(4)[:, :2])
        expected = np.sin(lam * K * grid.times) ** 2
        assert_allclose(trace.populations[:, 1], expected, atol=1e-12)
        assert_allclose(trace.populations[:, 0], 1.0 - expected, atol=1e-12)
        assert np.max(trace.leakage) < 1e-12

    def test_four_site_leakage_peak(self):
        result = run_scenario(ChainSpec(4, 20.0))
        assert result.leakage.delta == pytest.approx(0.0099, abs=0.001)

    def test_odd_five_site_mid_mode_takes_half(self):
        result = run_scenario(ChainSpec(5, 20.0))
        assert result.trace.mid_overlap is not None
        assert np.max(result.trace.mid_overlap) == pytest.approx(0.5, abs=0.01)

    def test_trace_invariants(self):
        for spec in (ChainSpec(4, 5.0), ChainSpec(5, 20.0, delta_omega=20.0)):
            trace = run_scenario(spec, n_steps=500).trace
            sums = trace.populations.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-10
            assert abs(trace.leakage[0]) < 1e-12
            assert np.all(trace.leakage >= 0.0)
            assert np.all(trace.leakage <= 1.0)

    def test_leakage_matches_dense_projector_on_odd_zero_level(self):
        spec = ChainSpec(7, 5.0)
        hams = build_chain(spec)
        ends = end_sites(7)
        basis = np.column_stack([ends[:, 0], ends[:, 1], phi_mid(7)])
        grid = default_time_grid(hams, 400)
        trace = simulate(hams.h_total, np.eye(7)[0], grid, basis)

        d = eig_sym_tridiag(hams.h_total)
        states = direct_exp_evolve(d.eigenvectors, d.eigenvalues, np.eye(7)[0], grid.times)
        p0 = basis @ basis.T
        dense = 1.0 - np.einsum("it,ij,jt->t", states.conj(), p0, states).real
        assert np.max(dense) > 0.01
        assert_allclose(trace.leakage, dense, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_steps", [1, 2, 37, 4000])
    @pytest.mark.parametrize("spec", ORACLE_CHAINS, ids=ORACLE_IDS)
    def test_scenario_trace_matches_direct_exp(self, spec, n_steps):
        result = run_scenario(spec, n_steps=n_steps)
        trace, d, n = result.trace, result.spectrum, spec.n_sites
        states = direct_exp_evolve(d.eigenvectors, d.eigenvalues, np.eye(n)[0], trace.grid.times)
        assert np.max(np.abs(trace.populations - np.abs(states.T) ** 2)) <= 1e-13
        watched = np.sum(np.abs(result.zero_basis.T @ states) ** 2, axis=0)
        assert np.max(np.abs(trace.leakage - (1.0 - watched))) <= 1e-13
        if n % 2 == 1 and spec.delta_omega is None:
            mid = np.abs(phi_mid(n) @ states) ** 2
            assert np.max(np.abs(trace.mid_overlap - mid)) <= 1e-13
        else:
            assert trace.mid_overlap is None

    def test_rejects_non_orthonormal_basis(self):
        hams = build_chain(ChainSpec(4, 5.0))
        grid = TimeGrid(1.0, 10)
        for basis in (2.0 * end_sites(4), np.eye(4)[:, [0, 0]], np.ones((4, 1)) / 2.0 + 0.1):
            with pytest.raises(ValidationError, match="orthonormal"):
                simulate(hams.h_total, np.eye(4)[0], grid, basis)

    def test_dimension_checks(self):
        hams = build_chain(ChainSpec(4, 5.0))
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValidationError):
            simulate(hams.h_total, np.eye(5)[0], grid, end_sites(5))
        with pytest.raises(ValidationError):
            simulate(hams.h_total, np.eye(4)[0], grid, end_sites(6))


@st.composite
def kernel_cases(draw):
    """A chain of each kind, its zero-level basis, a start state and a grid."""
    kind = draw(st.sampled_from(["even", "odd", "shifted"]))
    odd = kind != "even"
    n = 2 * draw(st.integers(2, 19 if odd else 20)) + odd  # even 4-40, odd 5-39
    k = 10.0 ** draw(st.floats(-2.0, 2.0))
    shift = draw(st.floats(5.0, 50.0)) * k if kind == "shifted" else None
    hams = build_chain(ChainSpec(n, draw(st.floats(1.5, 40.0)), k=k, delta_omega=shift))
    # steps + 1 = 2 and 38 are not multiples of B = ceil(sqrt(steps + 1)); 997 is prime
    steps = draw(st.one_of(st.sampled_from([1, 2, 37, 997, 4000]), st.integers(1, 600)))
    psi0 = np.eye(n)[0].astype(complex)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 /= np.linalg.norm(psi0)
    basis = effective_reports(hams).zero_basis
    return hams, psi0, basis, default_time_grid(hams, steps)


def states_leakage(d, psi0, basis, grid) -> np.ndarray:
    """1 - ||basis^T psi(t)||^2 from the full states, one exp per sample time."""
    states = direct_exp_evolve(d.eigenvectors, d.eigenvalues, psi0, grid.times)
    return 1.0 - np.sum(np.abs(basis.T @ states) ** 2, axis=0)


class TestLeakageSeries:
    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_simulate(self, case):
        hams, psi0, basis, grid = case
        d = eig_sym_tridiag(hams.h_total)
        got = leakage_series(d, psi0, basis, grid)
        assert np.array_equal(simulate(hams.h_total, psi0, grid, basis).leakage, got)
        want = states_leakage(d, psi0, basis, grid)
        assert got.shape == want.shape
        assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_dense_effective_hamiltonian(self):
        # the degenerate spectrum of an N x N effective matrix, watched on
        # one end site so the leakage is the transferred population
        result = run_scenario(ChainSpec(8, 5.0), n_steps=300)
        eff, grid = result.order1.matrix, result.grid
        d = SpectralDecomposition(*np.linalg.eigh(eff))
        for basis in (result.zero_basis, end_sites(8)[:, :1]):
            want = states_leakage(d, np.eye(8)[0], basis, grid)
            got = leakage_series(d, np.eye(8)[0], basis, grid)
            assert_allclose(got, want, rtol=0.0, atol=1e-13)
        assert np.max(got) == pytest.approx(1.0, abs=1e-6)

    def test_validates_like_simulate(self):
        hams = build_chain(ChainSpec(4, 5.0))
        d, grid = eig_sym_tridiag(hams.h_total), TimeGrid(1.0, 10)
        bad_calls = [
            (np.eye(5)[0], end_sites(4)),
            (2.0 * np.eye(4)[0], end_sites(4)),
            (np.eye(4)[0], end_sites(6)),
            (np.eye(4)[0], 2.0 * end_sites(4)),
            (np.eye(4)[0], np.eye(4)[:, [0, 0]]),
        ]
        for psi0, basis in bad_calls:
            with pytest.raises(ValidationError) as want:
                simulate(hams.h_total, psi0, grid, basis)
            with pytest.raises(ValidationError) as got:
                leakage_series(d, psi0, basis, grid)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


class TestMeasureLeakage:
    def test_reports_first_attaining_sample(self):
        grid = TimeGrid(np.pi, 400)
        eff = SymTridiagMatrix(np.zeros(2), np.array([K]))
        trace = simulate(eff, np.array([1.0, 0.0]), grid, np.eye(2)[:, :1])
        report = measure_leakage(trace)
        # leakage sin^2(t) peaks first at t = pi/2
        assert report.delta == pytest.approx(1.0, abs=1e-6)
        assert report.attained_at == pytest.approx(np.pi / 2, abs=grid.t_max / 400)

    def test_four_site_weak_watching(self):
        report = run_scenario(ChainSpec(4, 5.0)).leakage
        assert report.delta == pytest.approx(0.138, abs=0.005)

    def test_thirty_site_leakage_exceeds_threshold(self):
        report = run_scenario(ChainSpec(30, 20.0)).leakage
        assert report.delta > 0.1

    def test_modified_five_site(self):
        report = run_scenario(ChainSpec(5, 20.0, delta_omega=20.0)).leakage
        assert report.delta == pytest.approx(0.023, abs=0.003)


def _closed_form_window(family: str, n: int, k: float, lam_inv: float) -> tuple[ChainSpec, float]:
    """A chain of ``family`` and the closed form of its one-cycle window."""
    if family == "even":
        return ChainSpec(n, lam_inv, k), np.pi * lam_inv / k
    if family == "odd":
        return ChainSpec(n, lam_inv, k), np.pi * np.sqrt(n - 1) / k
    delta_omega = 20.0 * k
    return ChainSpec(n, lam_inv, k, delta_omega=delta_omega), np.pi * delta_omega / k**2


WINDOW_CASES = [
    (family, n, k, lam_inv)
    for family, sizes in (
        ("even", (4, 10, 100, 500)),
        ("odd", (5, 11, 101, 501)),
        ("shifted_odd", (5, 11, 101, 501)),
    )
    for n in sizes
    for k, lam_inv in ((1e-9, 10.0), (1.0, 25.0), (1e3, 40.0))
]


class TestDefaultWindow:
    def test_even_window_is_one_effective_cycle(self):
        hams = build_chain(ChainSpec(4, 20.0))
        grid = default_time_grid(hams)
        assert grid.t_max == pytest.approx(np.pi * 20.0 / K, rel=1e-12)
        assert grid.n_steps == 4000

    def test_modified_odd_window(self):
        hams = build_chain(ChainSpec(5, 20.0, delta_omega=20.0))
        assert default_time_grid(hams).t_max == pytest.approx(np.pi * 20.0 / K**2, rel=1e-12)

    def test_unmodified_odd_window(self):
        hams = build_chain(ChainSpec(5, 20.0))
        assert default_time_grid(hams).t_max == pytest.approx(np.pi * 2.0 / K, rel=1e-12)

    @pytest.mark.parametrize("family, n, k, lam_inv", WINDOW_CASES)
    def test_window_matches_closed_form(self, family, n, k, lam_inv):
        # pi lam_inv / k (even), pi sqrt(N-1) / k (unshifted odd) and
        # pi |delta_omega| / k^2 (shifted odd) referee the one cycle rule
        spec, closed_form = _closed_form_window(family, n, k, lam_inv)
        assert default_time_grid(build_chain(spec), 10).t_max == pytest.approx(
            closed_form, rel=1e-12
        )

    def test_shifted_even_window_is_its_order1_cycle(self):
        # no closed form: the window is 2 pi over the order-1 block's level gap,
        # shorter than the unshifted pi lam_inv / k
        hams = build_chain(ChainSpec(4, 20.0, delta_omega=5.0))
        levels = np.linalg.eigvalsh(effective_reports(hams).order1.block)
        t_max = default_time_grid(hams).t_max
        assert t_max == pytest.approx(2.0 * np.pi / (levels[1] - levels[0]), rel=1e-12)
        assert t_max == pytest.approx(62.3467, abs=1e-4)
        assert t_max < np.pi * 20.0 / K


class TestDynamicsProperties:
    def test_norm_and_energy_conservation(self):
        hams = build_chain(ChainSpec(6, 20.0))
        grid = default_time_grid(hams, n_steps=800)
        d = eig_sym_tridiag(hams.h_total)
        psi0 = np.zeros(6, dtype=complex)
        psi0[0] = 1.0
        states = evolve_grid(d, psi0, grid)
        norms = np.linalg.norm(states, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        h = hams.h_total.to_dense()
        energies = np.einsum("it,ij,jt->t", states.conj(), h, states).real
        assert np.max(np.abs(energies - energies[0])) <= 1e-10 * max(
            1.0, abs(energies[0])
        )

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(4, 5.0), ChainSpec(5, 20.0), ChainSpec(5, 20.0, delta_omega=20.0)],
        ids=["even4", "odd5", "mod5"],
    )
    def test_watched_energy_bound(self, spec):
        # H_watch's spectrum stays inside [-2k, 2k] and annihilates the
        # watched subspace, so |<H_w>| <= 2 k * leakage at every sample
        result = run_scenario(spec, n_steps=800)
        hams = result.hams
        d = eig_sym_tridiag(hams.h_total)
        psi0 = np.zeros(spec.n_sites, dtype=complex)
        psi0[0] = 1.0
        states = direct_exp_evolve(d.eigenvectors, d.eigenvalues, psi0, result.trace.grid.times)
        hw = hams.h_watch.to_dense()
        watched = np.einsum("it,ij,jt->t", states.conj(), hw, states).real
        bound = 2.0 * spec.k * result.trace.leakage
        assert np.all(np.abs(watched) <= bound + 1e-10)

    def test_effective_and_full_end_populations_agree(self):
        result = run_scenario(ChainSpec(4, 20.0))
        w, u = np.linalg.eigh(result.order1.matrix)
        eff_states = direct_exp_evolve(u, w, np.eye(4)[0], result.trace.grid.times)
        eff_populations = np.abs(eff_states.T) ** 2
        for site in (0, 3):
            dev = np.max(np.abs(result.trace.populations[:, site] - eff_populations[:, site]))
            assert dev <= 0.05

    def test_delta_decreases_with_stronger_watching(self):
        deltas = [
            run_scenario(ChainSpec(4, li)).leakage.delta for li in (5.0, 10.0, 20.0, 40.0)
        ]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_reversal_symmetry_of_populations(self):
        for spec in (ChainSpec(6, 5.0), ChainSpec(7, 5.0)):
            n = spec.n_sites
            hams = build_chain(spec)
            grid = TimeGrid(20.0, 400)
            fwd = simulate(hams.h_total, np.eye(n)[0], grid, end_sites(n))
            rev = simulate(hams.h_total, np.eye(n)[-1], grid, end_sites(n))
            assert_allclose(
                fwd.populations, rev.populations[:, ::-1], atol=1e-12
            )


class TestU1Correction:
    def setup_corrections(self, n_sites: int, lambda_inv: float):
        hams = build_chain(ChainSpec(n_sites, lambda_inv))
        d = eig_sym_tridiag(hams.h_watch)
        ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
        return first_order_corrections(ps, hams.h_weak.to_dense(), end_basis(n_sites))

    def u1_peak(self, n_sites: int, lambda_inv: float) -> float:
        # tau = t / lam over [0, pi / lam], i.e. t over [0, pi / k]
        lam = 1.0 / lambda_inv
        fc = self.setup_corrections(n_sites, lambda_inv)
        return float(np.max(u1_correction_trace(fc, lam, TimeGrid(np.pi / (lam * K), 4000))))

    def test_peak_tracks_measured_delta(self):
        # the perturbative peak referees the exact delta of every even chain
        # up to N = 30; measured 0.994-1.007 at lambda_inv = 100 and
        # 1.010-1.114 at 20, where the first-order picture is coarser
        for lambda_inv, lo, hi in ((100.0, 0.99, 1.01), (20.0, 0.99, 1.13)):
            for n_sites in range(4, 31, 2):
                delta = run_scenario(ChainSpec(n_sites, lambda_inv)).leakage.delta
                ratio = self.u1_peak(n_sites, lambda_inv) / delta
                assert lo <= ratio <= hi, (n_sites, lambda_inv, ratio)

    @pytest.mark.parametrize("lambda_inv", [20.0, 40.0, 100.0])
    def test_peak_tracks_delta_estimate(self, lambda_inv):
        # the fitted closed form DELTA_FIT_COEFF G^2 against the perturbative
        # peak: measured 0.93-1.10 at each lambda_inv
        for n_sites in range(4, 31, 2):
            ratio = self.u1_peak(n_sites, lambda_inv) / delta_estimate(n_sites, 1.0 / lambda_inv)
            assert 0.9 <= ratio <= 1.12, (n_sites, ratio)

    def test_vanishes_with_lambda(self):
        fc = self.setup_corrections(6, 20.0)
        tau_grid = TimeGrid(100.0, 200)
        big = u1_correction_trace(fc, 1e-4, tau_grid)
        small = u1_correction_trace(fc, 1e-6, tau_grid)
        assert np.max(big) < 1e-6
        # amplitude scales as lam^2
        assert np.max(small) == pytest.approx(np.max(big) * 1e-4, rel=1e-3)

    def test_mixing_coefficients_enter_with_g_n(self):
        # the time-independent weight of each interior mode in the
        # correction of the symmetric/antisymmetric zero states is -g_n/lam
        lam = 1.0 / 12.0
        fc = self.setup_corrections(8, 12.0)
        from zenochain.analytic import toeplitz_eigenpair

        for n in range(1, 7):
            _, vec = toeplitz_eigenpair(8, K, n)
            target = fc.corrections[:, -2] if n % 2 == 1 else fc.corrections[:, -1]
            assert abs(lam * float(vec @ target) + g_n(8, lam, n)) < 1e-10

    def test_odd_unmodified_chain_rejected(self):
        hams = build_chain(ChainSpec(5, 20.0))
        d = eig_sym_tridiag(hams.h_watch)
        ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
        with pytest.raises(UnsupportedConfigurationError):
            first_order_corrections(ps, hams.h_weak.to_dense(), end_basis(5))


class TestLeakageFrequency:
    def test_matches_fft_peak(self):
        result = run_scenario(ChainSpec(4, 20.0))
        d_tot = eig_sym_tridiag(result.hams.h_total)
        estimate = leakage_frequency_estimate(d_tot, 4)
        times = result.trace.grid.times
        measured = dominant_angular_frequency(result.trace.leakage, times[1] - times[0])
        assert estimate == pytest.approx(measured, rel=0.1)

    def test_decreases_with_length(self):
        freqs = []
        for n in (4, 6, 10, 14):
            d_tot = eig_sym_tridiag(build_chain(ChainSpec(n, 20.0)).h_total)
            freqs.append(leakage_frequency_estimate(d_tot, n))
        assert all(a > b for a, b in zip(freqs, freqs[1:]))

    def test_decreases_with_weaker_watching(self):
        freqs = []
        for li in (20.0, 10.0, 5.0):
            d_tot = eig_sym_tridiag(build_chain(ChainSpec(6, li)).h_total)
            freqs.append(leakage_frequency_estimate(d_tot, 6))
        assert all(a > b for a, b in zip(freqs, freqs[1:]))

    def test_positive_and_even_only(self):
        d_tot = eig_sym_tridiag(build_chain(ChainSpec(8, 9.0)).h_total)
        assert leakage_frequency_estimate(d_tot, 8) > 0.0
        d5 = eig_sym_tridiag(build_chain(ChainSpec(5, 9.0)).h_total)
        with pytest.raises(UnsupportedConfigurationError):
            leakage_frequency_estimate(d5, 5)


class TestTimeGrid:
    def test_times_cover_window(self):
        grid = TimeGrid(2.0, 4)
        assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        for t_max in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValidationError, match="t_max"):
                TimeGrid(t_max, 10)
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 0)
