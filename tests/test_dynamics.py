"""Time evolution traces, leakage measurement, propagator corrections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zenochain.analytic import delta_estimate, g_n, phi_mid
from zenochain.chain import ChainSpec, build_chain
from zenochain.dynamics import TimeGrid, leakage_trace, measure_leakage, observe, simulate
from zenochain.errors import UnsupportedConfigurationError, ValidationError
from zenochain.harness import effective_reports, run_scenario
from zenochain.linalg import SpectralDecomposition, SymTridiagMatrix, eig_sym_tridiag, evolve_grid
from zenochain.perturbation import default_grouping_tolerance, group_levels

from .oracles import (
    direct_exp_evolve,
    dominant_angular_frequency,
    first_order_corrections,
    leakage_frequency_estimate,
    mp_leakage_series,
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
        grid = run_scenario(spec, 400).grid
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
        trace, obs, n = result.trace, result.observation, spec.n_sites
        d, times = obs.spectrum, obs.window.times
        states = direct_exp_evolve(d.eigenvectors, d.eigenvalues, np.eye(n)[0], times)
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
    return hams, psi0, basis, run_scenario(hams.spec, steps).grid


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
        got = observe(d, psi0, basis, grid).series
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
            got = observe(d, np.eye(8)[0], basis, grid).series
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
                observe(d, psi0, basis, grid)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


SLOW_SET_CASES = [
    (family, lam_inv, delta_omega)
    for family, delta_omegas in (("even", (None,)), ("odd", (None,)), ("shifted_odd", (20.0, 1e3)))
    for lam_inv in (2.5, 20.0, 1e4)
    for delta_omega in delta_omegas
]


class TestObservation:
    @pytest.mark.parametrize("family, lam_inv, delta_omega", SLOW_SET_CASES)
    def test_slow_set_and_margin_match_dense_eigh(self, family, lam_inv, delta_omega):
        # the weights ||V0^T u_n||^2 from np.linalg.eigh of the dense h_total,
        # on the ends (and the mid zero mode of an unshifted odd chain); the
        # slow set must agree wherever the referee's margin sets it apart
        sizes = range(4, 61, 2) if family == "even" else range(5, 60, 2)
        for n in [*sizes, 150 if family == "even" else 151]:
            spec = ChainSpec(n, lam_inv, delta_omega=delta_omega)
            result = run_scenario(spec, 4, t_max=1.0)
            basis = end_sites(n)
            if family == "odd":
                basis = np.column_stack([basis, phi_mid(n)])
            assert_allclose(result.zero_basis @ result.zero_basis.T, basis @ basis.T, atol=1e-10)
            u = np.linalg.eigh(build_chain(spec).h_total.to_dense())[1]
            weight = np.sum((basis.T @ u) ** 2, axis=0)
            rank = np.argsort(-weight, kind="stable")
            d0 = basis.shape[1]
            margin = weight[rank[d0 - 1]] - weight[rank[d0]]
            obs = result.observation
            assert abs(obs.weight_margin - margin) <= 1e-12, spec
            if margin > 1e-10:
                assert np.array_equal(obs.slow, np.sort(rank[:d0])), spec

    def test_weights_are_the_watched_amplitudes(self):
        # w = (V0^T U) * c with c = U^T psi0, the spectrum in units of k
        spec = ChainSpec(9, 20.0, k=3.0)
        result = run_scenario(spec, 50)
        obs = result.observation
        u = obs.spectrum.eigenvectors
        unit = eig_sym_tridiag(build_chain(spec).unit.h_total)
        assert np.array_equal(obs.spectrum.eigenvalues, unit.eigenvalues)
        assert obs.c.dtype == obs.w.dtype == float
        assert obs.c.tobytes() == u[0].tobytes()
        assert np.array_equal(obs.w, (result.zero_basis.T @ u) * obs.c)
        assert np.array_equal(obs.series, result.trace.leakage)
        assert obs.peak == result.leakage

    @pytest.mark.parametrize("spec", ORACLE_CHAINS, ids=ORACLE_IDS)
    def test_site_one_real_or_complex(self, spec):
        # U^T e1 is exact in both dtypes, and numpy multiplies a float operand
        # as x + 0j: c, w, the series, the peak and the states agree to the
        # bit (a complex c or w has zero imaginary parts of either sign)
        result = run_scenario(spec, 37)
        d, basis, grid = result.observation.spectrum, result.zero_basis, result.grid
        n = spec.n_sites
        e1, mid = np.eye(n)[0], np.full(n, n**-0.5)
        real, cplx = observe(d, e1, basis, grid), observe(d, e1 + 0j, basis, grid)
        for a, b in ((real.c, cplx.c), (real.w, cplx.w)):
            assert a.dtype == float and a.tobytes() == b.real.tobytes() and not np.any(b.imag)
        assert real.series.tobytes() == cplx.series.tobytes()
        assert real.peak == cplx.peak
        assert evolve_grid(d, e1, grid).tobytes() == evolve_grid(d, e1 + 0j, grid).tobytes()
        want = leakage_trace(real, mid).mid_overlap
        for obs, mid_state in ((cplx, mid), (real, mid + 0j)):
            got = leakage_trace(obs, mid_state).mid_overlap
            assert got.tobytes() == want.tobytes()

    def test_rejects_complex_basis(self):
        # a complex basis is refused, not cast to its real part
        d = eig_sym_tridiag(build_chain(ChainSpec(4, 5.0)).h_total)
        for basis in (end_sites(4) + 0j, 1j * end_sites(4)):
            with pytest.raises(ValidationError, match="^basis: must be real$"):
                observe(d, np.eye(4)[0], basis, TimeGrid(1.0, 10))

    def test_rejects_nan_inputs(self):
        # a NaN norm passed the unit-norm and orthonormality checks
        d = eig_sym_tridiag(build_chain(ChainSpec(4, 5.0)).h_total)
        grid, e1, basis = TimeGrid(1.0, 10), np.eye(4)[0], end_sites(4)
        nan_state = np.array([np.nan, 0, 0, 0])
        with pytest.raises(ValidationError, match="^psi0: must have unit norm within 1e-12$"):
            observe(d, nan_state, basis, grid)
        with pytest.raises(ValidationError, match="^basis: columns must be orthonormal$"):
            observe(d, e1, np.where(basis == 1.0, np.nan, basis), grid)
        obs = observe(d, e1, basis, grid)
        with pytest.raises(ValidationError, match="^mid_state: must have unit norm within 1e-12$"):
            leakage_trace(obs, nan_state)

    def test_tie_goes_to_the_lower_index(self):
        # one watched vector split evenly over eigenvectors 1 and 2
        d = SpectralDecomposition(np.arange(4.0), np.eye(4))
        basis = (np.eye(4)[:, [1]] + np.eye(4)[:, [2]]) / np.sqrt(2.0)
        obs = observe(d, np.eye(4)[0], basis, TimeGrid(1.0, 4))
        assert obs.slow.tolist() == [1]
        assert obs.weight_margin == 0.0

    def test_full_basis_has_no_leakage(self):
        d = eig_sym_tridiag(build_chain(ChainSpec(6, 5.0)).h_total)
        obs = observe(d, np.eye(6)[0], np.eye(6), TimeGrid(1.0, 10))
        assert obs.slow.tolist() == list(range(6))
        assert obs.weight_margin == pytest.approx(1.0, abs=1e-12)
        assert np.max(obs.series) <= 1e-14


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
        grid = run_scenario(ChainSpec(4, 20.0)).grid
        assert grid.t_max == pytest.approx(np.pi * 20.0 / K, rel=1e-12)
        assert grid.n_steps == 4000

    def test_modified_odd_window(self):
        grid = run_scenario(ChainSpec(5, 20.0, delta_omega=20.0)).grid
        assert grid.t_max == pytest.approx(np.pi * 20.0 / K**2, rel=1e-12)

    def test_unmodified_odd_window(self):
        grid = run_scenario(ChainSpec(5, 20.0)).grid
        assert grid.t_max == pytest.approx(np.pi * 2.0 / K, rel=1e-12)

    @pytest.mark.parametrize("family, n, k, lam_inv", WINDOW_CASES)
    def test_window_matches_closed_form(self, family, n, k, lam_inv):
        # pi lam_inv / k (even), pi sqrt(N-1) / k (unshifted odd) and
        # pi |delta_omega| / k^2 (shifted odd) referee the one cycle rule
        spec, closed_form = _closed_form_window(family, n, k, lam_inv)
        assert run_scenario(spec, 10).grid.t_max == pytest.approx(closed_form, rel=1e-12)

    def test_shifted_even_window_is_its_order1_cycle(self):
        # no closed form: the window is 2 pi over the order-1 block's level gap,
        # shorter than the unshifted pi lam_inv / k
        spec = ChainSpec(4, 20.0, delta_omega=5.0)
        levels = np.linalg.eigvalsh(effective_reports(build_chain(spec)).order1.block)
        t_max = run_scenario(spec).grid.t_max
        assert t_max == pytest.approx(2.0 * np.pi / (levels[1] - levels[0]), rel=1e-12)
        assert t_max == pytest.approx(62.3467, abs=1e-4)
        assert t_max < np.pi * 20.0 / K


class TestFiftyDigitReferee:
    """The program's leakage of |1> against the exact dynamics of its own
    double input (``mp_leakage_series``, 50 digits) on the 201-sample window."""

    @pytest.mark.parametrize("lam_inv", [20.0, 1e4])
    def test_series_and_delta(self, lam_inv):
        # at most 17.9 eps (N = 12, lam_inv = 20) and 11.3 eps (N = 12,
        # lam_inv = 1e4) when this bound was set, so the bound is 24 eps; delta
        # is within 2.7e-13 relative at lam_inv = 20 (at 1e4 it is off by up
        # to 3.3e-8 relative, the cancellation ROADMAP item 3 removes)
        eps = np.finfo(float).eps
        for n in range(4, 14):
            result = run_scenario(ChainSpec(n, lam_inv), 200)  # k = 1: window = grid
            want = mp_leakage_series(result.hams.unit.h_total, result.zero_basis, result.grid)
            got = result.observation.series
            assert np.max(np.abs(got - want)) <= 24.0 * eps, n
            if lam_inv == 20.0:
                assert result.leakage.delta == pytest.approx(np.max(want), rel=1e-12, abs=0.0), n


class TestDynamicsProperties:
    def test_norm_and_energy_conservation(self):
        hams = build_chain(ChainSpec(6, 20.0))
        grid = run_scenario(hams.spec, n_steps=800).grid
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
