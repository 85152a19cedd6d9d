"""Scenario runner, sweep engine, fluctuation trials, slope fitting."""

from __future__ import annotations

import importlib
import importlib.util
import io
import subprocess
import sys
import tempfile
import types
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenochain
from zenochain import cli, dynamics, harness, linalg, perturbation, qzd
from zenochain.analytic import f_of_n, g_n, qtilde_fluctuating_corner, toeplitz_eigenpair
from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from zenochain.dynamics import (
    Observation, default_time_grid, measure_leakage, observe, peak_report, site_one
)
from zenochain.errors import (
    AssumptionViolationError,
    ClusteringError,
    NumericalFailureError,
    UnsupportedConfigurationError,
    ValidationError,
    ZenoChainError,
)
from zenochain.harness import (
    effective_reports,
    fit_slope_through_origin,
    run_fluctuation_trials,
    run_scenario,
    run_sweep,
)
from zenochain.linalg import (
    PARITY_MIN_SIZE,
    SpectralDecomposition,
    SymTridiagMatrix,
    TimeGrid,
    eig_sym_tridiag,
)
from zenochain.qzd import QzdOrder, analyze_watch

from .oracles import dense_scenario, dominant_effective_matrix, zero_level_by_loop


class TestGuards:
    """Each guard raises its class with a message that starts with the input
    it names."""

    @pytest.mark.parametrize(
        "call, error, prefix",
        [
            (  # every site of the watch carries an on-site energy of 1
                lambda: qzd.classify(
                    SymTridiagMatrix(np.ones(4), np.zeros(3)),
                    SymTridiagMatrix(np.zeros(4), np.ones(3)),
                    site_one(4),
                ),
                AssumptionViolationError, "H_watch has no zero level",
            ),
            (lambda: SymTridiagMatrix(np.zeros(0), np.zeros(0)), ValidationError, "diag: "),
            (lambda: fit_slope_through_origin([0.0, 0.0], [1.0, 2.0]), ValidationError, "fit: "),
            (lambda: toeplitz_eigenpair(3, 1.0, 1), ValidationError, "n_sites: "),
            (lambda: g_n(6, 0.1, 5), ValidationError, "n: "),
            (
                lambda: interior_block(SymTridiagMatrix(np.zeros(3), np.ones(2))),
                ValidationError, "interior_block: ",
            ),
            (
                lambda: perturbation.group_levels(
                    SpectralDecomposition(np.array([1.0, 2.0]), np.eye(2)), 1e-8
                ).zero_level,
                ValidationError, "projector set has no zero level",
            ),
        ],
        ids=["no_zero_level", "empty_diag", "zero_abscissae", "toeplitz_n_sites", "g_n_index",
             "interior_block", "no_zero_projector"],
    )
    def test_raises_naming_its_input(self, call, error, prefix):
        with pytest.raises(error) as raised:
            call()
        assert type(raised.value) is error
        assert str(raised.value).startswith(prefix)


class TestSlopeFit:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0])
        assert fit_slope_through_origin(x, 4.0 * x) == pytest.approx(4.0)

    def test_single_point(self):
        assert fit_slope_through_origin([0.01], [0.043]) == pytest.approx(4.3)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fit_slope_through_origin([], [])


class TestSweep:
    def test_single_cell_slope_is_ratio(self):
        g = 0.1
        result = run_sweep([g], [4], n_steps=2000)
        assert result.delta.shape == result.lambda_inv.shape == (1, 1)
        assert result.lambda_inv[0, 0] == pytest.approx(f_of_n(4) / g)
        assert result.slope == pytest.approx(result.delta[0, 0] / g**2)
        assert result.flatness[0] == 0.0

    def test_row_grid_and_lambda_assignment(self):
        # one row per G and one column per N
        result = run_sweep([0.05, 0.1], [4, 6, 8], n_steps=500)
        assert result.g_values.tolist() == [0.05, 0.1]
        assert result.n_values.tolist() == [4, 6, 8]
        assert result.delta.shape == result.lambda_inv.shape == (2, 3)
        for i, g in enumerate(result.g_values):
            for j, n in enumerate(result.n_values):
                assert result.lambda_inv[i, j] == pytest.approx(f_of_n(n) / g)
                assert 0.0 < result.delta[i, j] < 1.0

    def test_mean_flatness_definition(self):
        result = run_sweep([0.1, 0.15], [4, 6, 8, 10], n_steps=1000)
        for deltas, mean, flat in zip(result.delta, result.mean_delta, result.flatness):
            assert mean == pytest.approx(float(np.mean(deltas)))
            expect_flat = float(np.max(np.abs(deltas - deltas.mean())) / deltas.mean())
            assert flat == pytest.approx(expect_flat)

    def test_round_off_delta_is_not_fitted(self):
        # at G = 1e-12 every delta is round-off of the leakage series; the
        # fit took it and reported a slope near 1e9
        message = r"^sweep: no mean delta above the round-off floor .* and below 0\.2; "
        with pytest.raises(ValidationError, match=message):
            run_sweep([1e-12], [4, 6], n_steps=200)
        mixed = run_sweep([1e-12, 0.1], [4, 6], n_steps=200)
        assert mixed.mean_delta[0] <= harness.DELTA_FIT_FLOOR
        assert mixed.slope == run_sweep([0.1], [4, 6], n_steps=200).slope

    def test_row_of_zero_deltas_is_flat(self):
        # every delta at G = 1e-20 is exactly 0; its flatness was 0 / 0, a
        # RuntimeWarning (an error under this suite) and a NaN in the JSON
        result = run_sweep([1e-20, 0.1], [4], n_steps=50)
        assert result.delta[0].tolist() == [0.0]
        assert result.flatness[0] == 0.0

    def test_lambda_inv_below_one_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep([2.0], [4], n_steps=100)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep([], [4])

    def test_odd_length_rejected(self):
        # read "n_sites: must be an even integer >= 4"; n_sites is no flag of the sweep
        with pytest.raises(ValidationError, match="^sweep: N=5 must be an even integer >= 4$"):
            run_sweep([0.1], [5])

    @pytest.mark.parametrize("g", [0.0, -0.1, np.nan, np.inf])
    def test_g_must_be_finite_and_positive(self, monkeypatch, g):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_observe", no_cell)
        message = f"^sweep: G must be finite and positive, got {g:g}$"
        with pytest.raises(ValidationError, match=message):
            run_sweep([0.1, g], [4])

    @pytest.mark.parametrize("g_list, n_list, message", [
        ([0.1, 0.1], [4, 6], "G=0.1 is repeated"),
        ([0.05, 0.1, 0.05], [4], "G=0.05 is repeated"),
        ([0.1], [4, 4, 6], "N=4 is repeated"),
    ])
    def test_repeated_values_rejected(self, monkeypatch, g_list, n_list, message):
        # a repeated value would run its cells again and count twice in the fit
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_observe", no_cell)
        with pytest.raises(ValidationError, match=f"^sweep: {message}$"):
            run_sweep(g_list, n_list)


class TestBoundGuarantee:
    @pytest.mark.parametrize("n_sites", (4, 10, 30, 100))
    def test_ratio_above_bound_keeps_leakage_under_standard(self, n_sites):
        # operational meaning of lambda_bound: running above it keeps the
        # peak leakage under delta0. The quadratic fit behind the bound has
        # a few-percent grid dependence (the delta/G^2 ratio climbs with
        # chain length), so the guarantee is exercised 5% above the bound.
        from zenochain.analytic import lambda_bound

        delta0 = 0.1
        lam_inv = 1.05 * lambda_bound(n_sites, delta0)
        delta = run_scenario(ChainSpec(n_sites, lam_inv)).leakage.delta
        assert delta < delta0


class TestQuadraticLawRecovery:
    def test_fit_constant_recovered_on_long_chain_grid(self):
        # the mean-delta-vs-G^2 ratio climbs slowly with chain length, so a
        # grid reaching longer chains (and stopping below the saturating
        # G=0.2 line) reproduces the fitted constant 4.3
        result = run_sweep([0.05, 0.1, 0.15], list(range(4, 51, 2)))
        assert result.slope == pytest.approx(4.30, abs=0.15)
        assert max(result.flatness) <= 0.15


class TestFluctuationTrials:
    def test_zero_amplitude_matches_baseline(self):
        corners, deltas = run_fluctuation_trials(6, 0.0, 3, seed=0, n_steps=500)
        baseline = run_scenario(ChainSpec(6, 20.0), n_steps=500)
        base_corner = qtilde_fluctuating_corner(np.full(3, 1.0))
        assert corners.shape == deltas.shape == (3,)
        assert corners == pytest.approx(np.full(3, base_corner), abs=1e-12)
        assert deltas == pytest.approx(np.full(3, baseline.leakage.delta), abs=1e-12)

    def test_corner_matches_closed_form_per_trial(self):
        # trial j seeds seed + j
        corners, _ = run_fluctuation_trials(10, 0.05, 5, seed=7, n_steps=200)
        assert corners.shape == (5,)
        for j, corner in enumerate(corners):
            spec = ChainSpec(10, 20.0, fluctuation=CouplingFluctuation(0.05, 7 + j))
            couplings = build_chain(spec).h_watch.offdiag[1:-1]
            assert corner == pytest.approx(qtilde_fluctuating_corner(couplings), abs=1e-10)

    def test_every_trial_uses_the_noise_free_window(self):
        # the window is computed once, from the chain without coupling noise
        _, deltas = run_fluctuation_trials(10, 0.05, 5, seed=7, n_steps=200)
        grid = run_scenario(ChainSpec(10, 20.0), 200).grid
        ends = np.eye(10)[:, [0, -1]]
        assert deltas.shape == (5,)
        for j, delta in enumerate(deltas):
            spec = ChainSpec(10, 20.0, fluctuation=CouplingFluctuation(0.05, 7 + j))
            d = eig_sym_tridiag(build_chain(spec).h_total)
            assert delta == float(np.max(observe(d, ends[:, 0], ends, grid).series))

    @pytest.mark.parametrize("n_sites, amplitude, lambda_inv", [
        (6, 0.05, 20.0), (10, 0.2, 2.5), (24, 0.1, 7.0), (70, 0.2, 20.0),
    ])
    def test_trials_are_scenarios(self, n_sites, amplitude, lambda_inv):
        # each trial watches the noise-free chain's zero basis, which is
        # {|1>, |N>} for every noisy even chain, over the noise-free default
        # window; run_scenario on the noisy chain over that window gives the
        # same delta, bit for bit (at k = 1, where the window needs no rescaling)
        seed, n_steps = 11, 300
        _, deltas = run_fluctuation_trials(n_sites, amplitude, 4, seed, lambda_inv, n_steps=n_steps)
        t_max = run_scenario(ChainSpec(n_sites, lambda_inv), n_steps).grid.t_max
        for j, delta in enumerate(deltas):
            noise = CouplingFluctuation(amplitude, seed + j)
            spec = ChainSpec(n_sites, lambda_inv, fluctuation=noise)
            assert delta == run_scenario(spec, n_steps, t_max=t_max).leakage.delta, spec

    def test_deterministic_given_seed(self):
        a = run_fluctuation_trials(8, 0.05, 4, seed=3, n_steps=200)
        b = run_fluctuation_trials(8, 0.05, 4, seed=3, n_steps=200)
        assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

    def test_odd_length_rejected(self):
        with pytest.raises(ValidationError):
            run_fluctuation_trials(5, 0.05, 2, seed=0)

    def test_trial_count_validated(self):
        with pytest.raises(ValidationError):
            run_fluctuation_trials(6, 0.05, 0, seed=0)

    def test_trial_count_must_be_an_integer(self):
        # 2.5 ended in a numpy TypeError traceback
        with pytest.raises(ValidationError, match="^trials: must be an integer$"):
            run_fluctuation_trials(6, 0.05, 2.5, seed=0)
        corners, _ = run_fluctuation_trials(6, 0.05, np.int64(2), seed=0, n_steps=50)
        assert corners.shape == (2,)

    @pytest.mark.parametrize("trials", [True, np.bool_(True)])
    def test_trial_count_is_not_a_bool(self, trials):
        # True ended in numpy's TypeError traceback: a bool is an int subclass
        with pytest.raises(ValidationError, match="^trials: must be an integer$"):
            run_fluctuation_trials(6, 0.05, trials, seed=0)


class TestScenario:
    def test_dominant_matrix_follows_classification(self):
        first = run_scenario(ChainSpec(4, 20.0), n_steps=100)
        assert first.classification.order is QzdOrder.FIRST
        assert np.array_equal(dominant_effective_matrix(first), first.order1.matrix)

        zeroth = run_scenario(ChainSpec(5, 20.0), n_steps=100)
        assert zeroth.classification.order is QzdOrder.ZEROTH
        assert np.array_equal(dominant_effective_matrix(zeroth), zeroth.order0.matrix)

    def test_mid_overlap_only_with_an_interior_zero_mode(self):
        # the column is the watched row of the interior mode (d0 = 3, shifted
        # or not) and None where the zero level is the ends (d0 = 2)
        for spec, d0 in (
            (ChainSpec(5, 20.0), 3), (ChainSpec(5, 1e10, delta_omega=1e-10), 3),
            (ChainSpec(4, 20.0), 2), (ChainSpec(5, 20.0, delta_omega=20.0), 2),
        ):
            result = run_scenario(spec, n_steps=50)
            mid = result.trace.mid_overlap
            assert result.zero_basis.shape[1] == d0, spec
            if d0 == 3:
                assert mid.tobytes() == result.observation.watched[1].tobytes(), spec
            else:
                assert mid is None, spec

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(30, 20.0), ChainSpec(31, 7.0), ChainSpec(29, 20.0, delta_omega=20.0)],
        ids=["even", "odd", "modified"],
    )
    def test_leakage_matches_the_trace(self, spec):
        result = run_scenario(spec)
        assert measure_leakage(result.trace) == result.leakage

    @pytest.mark.parametrize(
        "spec",
        [
            ChainSpec(PARITY_MIN_SIZE, 20.0),
            ChainSpec(PARITY_MIN_SIZE + 1, 7.0, k=1e-3),
            ChainSpec(100, 7.0, k=1e3),
            ChainSpec(101, 20.0),
        ],
        ids=["even-floor", "odd-floor", "even100", "odd101"],
    )
    def test_parity_split_matches_dense_referee(self, spec):
        # mirror-symmetric chains at or above the floor take the parity split
        result = run_scenario(spec)
        hams = result.hams
        order, d0, window, delta = dense_scenario(
            hams.h_watch.to_dense(), hams.h_weak.to_dense(), hams.h_total.to_dense(),
            spec.lam, result.grid.times,
        )
        assert result.classification.order.value == order
        assert result.classification.zero_level_dimension == d0
        assert result.grid.t_max == pytest.approx(window, rel=1e-12)
        assert result.leakage.delta == pytest.approx(delta, rel=1e-12)

    def test_shift_inside_tolerance_runs_on_its_zeroth_window(self):
        # the interior level lam * delta_omega / 2 = 2.5e-17 lies inside the
        # round-off bound N eps ||H_watch|| = 2.2e-15, so the chain is zeroth
        # order with d0 = 3, and its window is the unshifted odd chain's
        # zeroth-order cycle pi sqrt(N-1) / k
        result = run_scenario(ChainSpec(5, 20.0, delta_omega=1e-15), n_steps=200)
        assert result.classification.order is QzdOrder.ZEROTH
        assert result.zero_basis.shape == (5, 3)
        assert result.grid.t_max == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_shift_outside_tolerance_runs_on_its_first_order_window(self):
        # at delta_omega = 1e-7 the interior level 2.5e-9 lies outside the
        # bound (inside the 1e-8 grouping tolerance, zeroth before): d0 = 2,
        # first order, on the shifted odd chain's cycle pi delta_omega / k^2
        result = run_scenario(ChainSpec(5, 20.0, delta_omega=1e-7), n_steps=200)
        assert result.classification.order is QzdOrder.FIRST
        assert result.zero_basis.shape == (5, 2)
        assert result.grid.t_max == pytest.approx(np.pi * 1e-7, rel=1e-6)

    @pytest.mark.parametrize("order", [QzdOrder.NO_DYNAMICS, QzdOrder.HIGHER_OR_NONE])
    def test_orders_without_a_cycle_need_an_explicit_window(self, order):
        analysis = effective_reports(build_chain(ChainSpec(6, 20.0)))
        with pytest.raises(UnsupportedConfigurationError, match="--t-max"):
            analysis.cycle(order)

    def test_single_level_block_has_no_cycle(self):
        # an even chain's order-0 block is a multiple of P0: one level, no gap
        analysis = effective_reports(build_chain(ChainSpec(6, 20.0)))
        with pytest.raises(UnsupportedConfigurationError, match="--t-max"):
            analysis.cycle(QzdOrder.ZEROTH)


def _leaves_double_range(values, k: float, power: int, floor: float = 0.0) -> bool:
    """Whether reading ``values`` times k (power 1) or over k (-1) overflows,
    or takes a normal value above its round-off ``floor`` to a subnormal or zero."""
    v = np.abs(np.asarray(values, dtype=float))
    with np.errstate(over="ignore", under="ignore"):
        out = v * k if power == 1 else v / k
    tiny = np.finfo(float).tiny
    return bool(np.any(np.isinf(out) | ((v >= tiny) & (v > floor) & (out < tiny))))


def _assert_same_observation(obs: Observation, want: Observation) -> None:
    """Every field of ``obs`` equals ``want``'s, arrays to the bit."""
    for field in fields(Observation):
        read, expect = getattr(obs, field.name), getattr(want, field.name)
        if isinstance(read, SpectralDecomposition):
            pair = (read, expect)
            read, expect = (np.hstack([x.eigenvalues, x.eigenvectors.ravel()]) for x in pair)
        if isinstance(read, np.ndarray):
            assert read.dtype == expect.dtype and read.tobytes() == expect.tobytes(), field.name
        else:
            assert read == expect, field.name


@st.composite
def unit_scaled_chains(draw):
    """(spec, k = 2^e, e integral): even, odd, shifted-odd and fluctuating
    chains in units of k, with log2 k anywhere in [-1000, 1000]."""
    family = draw(st.sampled_from(["even", "odd", "shifted", "fluctuating"]))
    half = draw(st.integers(2, 30))
    n = 2 * half + (family in ("odd", "shifted"))
    integral = draw(st.booleans())
    e = draw(st.integers(-1000, 1000)) if integral else draw(st.floats(-1000.0, 1000.0))
    shift = draw(st.floats(5.0, 50.0)) if family == "shifted" else None
    noise = None
    if family == "fluctuating":
        noise = CouplingFluctuation(draw(st.floats(0.0, 0.2)), draw(st.integers(0, 2**16)))
    spec = ChainSpec(n, draw(st.floats(7.0, 40.0)), delta_omega=shift, fluctuation=noise)
    return spec, 2.0**e, integral


class TestEnergyUnit:
    """Every run is solved in units of k: k only scales what is read."""

    @given(unit_scaled_chains())
    @settings(max_examples=150, deadline=None)
    def test_results_are_free_of_k(self, drawn):
        unit_spec, k, power_of_two = drawn
        shift = None if unit_spec.delta_omega is None else unit_spec.delta_omega * k
        spec = replace(unit_spec, k=k, delta_omega=shift)
        unit_spec = replace(unit_spec, delta_omega=None if shift is None else shift / k)
        base = run_scenario(unit_spec, n_steps=200)
        c0 = base.classification
        # values at or below their block's round-off floor are round-off
        floor0, floor1 = base.order0.round_off, base.order1.round_off
        energies = [
            (base.order0.block, floor0), (base.order1.block, floor1),
            (base.order0.eta1_common or 0.0, floor0),
            (c0.commutator_norm_order0, floor0), (c0.commutator_norm_order1, floor1),
        ]
        if any(_leaves_double_range(v, k, 1, f) for v, f in energies) or _leaves_double_range(
            base.grid.t_max, k, -1
        ):
            with pytest.raises(ValidationError, match="^k: "):
                run_scenario(spec, n_steps=200)
            return

        got = run_scenario(spec, n_steps=200)
        c = got.classification
        assert (c.order, c.zero_level_dimension, c.prerequisite_i, c.notes) == (
            c0.order, c0.zero_level_dimension, c0.prerequisite_i, c0.notes
        )
        assert got.leakage.delta == base.leakage.delta
        assert got.grid.t_max == default_time_grid(build_chain(spec), 200).t_max
        # the observation is in units of k, field for field the unit run's;
        # the scenario dates its peak sample on the grid at k
        _assert_same_observation(got.observation, base.observation)
        assert got.leakage == peak_report(got.observation.series, got.grid)
        assert measure_leakage(got.trace) == got.leakage
        # the trace evolves the observation in units of k: no k enters a phase
        trace, unit_trace = got.trace, base.trace
        assert trace.grid is got.grid
        for name in ("populations", "leakage", "mid_overlap"):
            read, want = getattr(trace, name), getattr(unit_trace, name)
            assert (read is None and want is None) or read.tobytes() == want.tobytes(), name
        pairs = [(got.grid.t_max * k, base.grid.t_max, 0.0)]
        pairs += [(got.order0.block / k, base.order0.block, floor0)]
        pairs += [(got.order1.block / k, base.order1.block, floor1)]
        for read, want, floor in pairs:
            read, want = np.atleast_1d(read), np.atleast_1d(want)
            kept = np.abs(want) > floor
            if power_of_two:
                assert np.array_equal(read[kept], want[kept])
            else:
                assert np.all(np.abs(read - want)[kept] <= np.spacing(np.abs(want[kept])))
            # round-off may read as a subnormal
            assert np.all(np.abs(read - want)[~kept] <= floor)

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(6, 20.0), ChainSpec(7, 20.0), ChainSpec(7, 20.0, delta_omega=20.0)],
        ids=["even", "odd", "modified"],
    )
    def test_default_grid_is_the_scenario_grid(self, spec):
        # the benchmark's referee samples default_time_grid where the run did
        for k in (1.0, 3.0, 1e-200):
            scaled = replace(spec, k=k, delta_omega=spec.delta_omega and spec.delta_omega * k)
            want = default_time_grid(build_chain(scaled)).t_max
            assert run_scenario(scaled, n_steps=50).grid.t_max == want


@st.composite
def shifted_chains(draw):
    """Even, odd and fluctuating chains of 4-301 sites with a shift of either
    sign whose log10 lies anywhere in [-300, 300]."""
    family = draw(st.sampled_from(["even", "odd", "fluctuating"]))
    odd = family == "odd" or (family == "fluctuating" and draw(st.booleans()))
    n = 2 * draw(st.integers(2, 150)) + odd
    noise = CouplingFluctuation(0.1, n) if family == "fluctuating" else None
    shift = 10.0 ** draw(st.floats(-300.0, 300.0)) * draw(st.sampled_from([1.0, -1.0]))
    return ChainSpec(n, 20.0, delta_omega=shift, fluctuation=noise)


class TestZeroLevelDimension:
    """A chain's zero level holds its two ends and at most one zero mode of
    the interior block, an irreducible tridiagonal with simple eigenvalues."""

    @given(shifted_chains())
    @settings(max_examples=200, deadline=None)
    def test_at_most_three_or_delta_omega_is_named(self, spec):
        try:
            analysis = effective_reports(build_chain(spec))
        except ValidationError as exc:
            assert str(exc).startswith("delta_omega: ")
        else:
            assert 2 <= analysis.zero_basis.shape[1] <= 3


@st.composite
def theorem_chains(draw):
    """Even, odd, shifted (either sign, log10|delta_omega| in [-7, 9]) and
    fluctuating chains of 4-301 sites at lambda_inv anywhere in [2.5, 1e4]."""
    family = draw(st.sampled_from(["even", "odd", "shifted", "fluctuating"]))
    n = draw(st.integers(4, 301))
    if family in ("even", "odd"):
        n = 2 * draw(st.integers(2, 150)) + (family == "odd")
    shift = noise = None
    if family == "shifted":
        shift = 10.0 ** draw(st.floats(-7.0, 9.0)) * draw(st.sampled_from([1.0, -1.0]))
    if family == "fluctuating":
        noise = CouplingFluctuation(draw(st.floats(0.0, 0.2)), draw(st.integers(0, 2**16)))
    lambda_inv = 10.0 ** draw(st.floats(np.log10(2.5), 4.0))
    return ChainSpec(n, lambda_inv, delta_omega=shift, fluctuation=noise)


class TestChainOrderTheorem:
    """For |1> on a chain, d0 fixes the order. With d0 = 2 the order-0 block
    is exactly 0 and the order-1 block's (1, N) entry is k^2 times the corner
    of the interior block's inverse, nonzero: first. With d0 = 3 the interior
    zero mode has a nonzero end component (Parlett, The Symmetric Eigenvalue
    Problem, ch. 7), which the order-0 block couples to |1>: zeroth."""

    @given(theorem_chains())
    @example(ChainSpec(5, 20.0, delta_omega=1e9))  # higher_or_none with d0 = 2 before
    @example(ChainSpec(5, 20.0, delta_omega=2e9))  # higher_or_none with d0 = 3 before
    @example(ChainSpec(9, 20.0, delta_omega=1e9))  # "ambiguous zero level" before
    @settings(max_examples=300, deadline=None)
    def test_zero_level_dimension_fixes_the_order(self, spec):
        # the analysis' own class of |1>, not the run's, which also checks it
        try:
            analysis = effective_reports(build_chain(spec))
        except ValidationError as exc:
            assert spec.is_modified and str(exc).startswith("delta_omega: ")
            return
        c = analysis.classify(site_one(spec.n_sites))
        assert (c.zero_level_dimension, c.order) in {(2, QzdOrder.FIRST), (3, QzdOrder.ZEROTH)}
        if c.zero_level_dimension == 2:
            assert not np.any(analysis.blocks[0].block)


@st.composite
def zero_level_chains(draw):
    """``shifted_chains``, or unshifted and fluctuating chains of 4-101 sites
    with lambda_inv anywhere in [2.5, 1e4]."""
    family = draw(st.sampled_from(["shifted", "unshifted", "fluctuating"]))
    if family == "shifted":
        return draw(shifted_chains())
    noise = None
    if family == "fluctuating":
        noise = CouplingFluctuation(draw(st.floats(0.0, 0.2)), draw(st.integers(0, 2**16)))
    lambda_inv = 10.0 ** draw(st.floats(np.log10(2.5), 4.0))
    return ChainSpec(draw(st.integers(4, 101)), lambda_inv, fluctuation=noise)


class TestZeroLevelRule:
    """The analysis reads its zero level off the watch's irreducible blocks
    with a Sturm count and bisection; the loop referee splits the watch bond
    by bond and solves each block densely."""

    @given(zero_level_chains())
    @example(ChainSpec(61, 7.0, delta_omega=1e7))  # a far cluster raised before
    @example(ChainSpec(11, 2.5, delta_omega=1e8))  # a neighbour within the 1e-8 tol
    @example(ChainSpec(38, 2.5, delta_omega=1e7))  # a near-zero interior level joins
    @example(ChainSpec(1586, 20.0, delta_omega=1.4989759905676188e16))  # 1585 levels
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_referee(self, spec):
        eps = np.finfo(float).eps
        h = build_chain(spec).unit.h_watch
        tol = spec.n_sites * eps * h.frobenius_norm()
        members, outside, scale = [], [], 0.0
        for lo, w, v in zero_level_by_loop(h):
            # both solvers fix a level to a few eps times its block's norm: a
            # level that close to the bound may fall either side
            err = 8.0 * eps * np.max(np.abs(w))
            scale = max(scale, err)
            if np.any(np.abs(np.abs(w) - tol) <= err):
                return
            inside = np.abs(w) <= tol
            if np.count_nonzero(inside) > 1:
                with pytest.raises(ClusteringError, match="ambiguous zero level"):
                    analyze_watch(h, build_chain(spec).unit.h_weak)
                return
            for j in np.flatnonzero(inside):
                # a vector is fixed to about eps ||block|| over its gap
                gap = np.min(np.abs(np.delete(w, j) - w[j]), initial=np.inf)
                members.append((lo, v[:, j], 1e-8 + (100.0 * err / gap) ** 2))
            outside += np.abs(w[~inside]).tolist()
        try:
            analysis = analyze_watch(h, build_chain(spec).unit.h_weak)
        except NumericalFailureError:
            # the order-1 solve of an extreme shift fails after the zero
            # level was read (the CLI names delta_omega)
            assert spec.is_modified
            return
        v0 = analysis.zero_basis
        assert v0.shape == (spec.n_sites, len(members))
        # the same vectors, up to sign
        for lo, v, within in members:
            assert np.min(np.abs(np.abs(v @ v0[lo : lo + v.size]) - 1.0)) <= within
        delta = min(outside, default=np.inf)
        # the order-1 floor is N eps ||H_weak||^2 / Delta
        norm = build_chain(spec).unit.h_weak.frobenius_norm()
        got = spec.n_sites * eps * norm**2 / analysis.blocks[1].round_off
        assert got == pytest.approx(delta, rel=1e-12, abs=2.0 * scale)


@st.composite
def gauged_chains(draw):
    """(spec, bond signs): chains of 4-151 sites (unshifted ones of at least
    PARITY_MIN_SIZE take the parity split), lambda_inv in [2.5, 1e4], no
    shift or one with |delta_omega| <= 1e3, and a random sign per bond."""
    n = draw(st.integers(4, 151))
    lambda_inv = 10.0 ** draw(st.floats(np.log10(2.5), 4.0))
    shift = None
    if draw(st.booleans()):
        shift = 10.0 ** draw(st.floats(-3.0, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n - 1, max_size=n - 1)))
    return ChainSpec(n, lambda_inv, delta_omega=shift), signs


class TestBondSignGauge:
    """D H D with D = diag(+-1) and d_1 = 1 is H in another basis that keeps
    |1>: it flips the sign of each bond whose two sites differ in sign. The
    flips take a mirror chain off the parity-split eigensolver."""

    @given(gauged_chains())
    @settings(max_examples=100, deadline=None)
    def test_order_dimension_and_delta_are_gauge_free(self, drawn):
        spec, signs = drawn
        hams = build_chain(spec)
        psi0 = site_one(spec.n_sites)

        def flip(m):
            return SymTridiagMatrix(m.diag, m.offdiag * signs)

        plain = analyze_watch(hams.h_watch, hams.h_weak, spec.lam)
        gauged = analyze_watch(flip(hams.h_watch), flip(hams.h_weak), spec.lam)
        c, cg = plain.classify(psi0), gauged.classify(psi0)
        assert (cg.order, cg.zero_level_dimension) == (c.order, c.zero_level_dimension)
        # both leakages on the grid of the ungauged chain's cycle
        grid = TimeGrid(plain.cycle(c.order), 400)
        delta, delta_gauged = (
            np.max(observe(eig_sym_tridiag(h), psi0, a.zero_basis, grid).series)
            for h, a in ((hams.h_total, plain), (flip(hams.h_total), gauged))
        )
        assert delta_gauged == pytest.approx(delta, rel=1e-7)


@st.composite
def sign_flip_chains(draw):
    """(spec, seed): even, odd, shifted and fluctuating chains of 4-151 sites
    (unshifted mirror chains of at least PARITY_MIN_SIZE take the parity
    split) at lambda_inv in [2.5, 1e4], and a seed for the column signs."""
    family = draw(st.sampled_from(["even", "odd", "shifted", "fluctuating"]))
    half = draw(st.one_of(st.integers(2, 75), st.integers(PARITY_MIN_SIZE // 2, 75)))
    n = 2 * half + (family == "odd" or (family != "even" and draw(st.booleans())))
    shift = noise = None
    if family == "shifted":
        shift = 10.0 ** draw(st.floats(-3.0, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    if family == "fluctuating":
        noise = CouplingFluctuation(draw(st.floats(0.0, 0.2)), draw(st.integers(0, 2**16)))
    lambda_inv = 10.0 ** draw(st.floats(np.log10(2.5), 4.0))
    spec = ChainSpec(n, lambda_inv, delta_omega=shift, fluctuation=noise)
    return spec, draw(st.integers(0, 2**32 - 1))


class TestEigenvectorSigns:
    """Every output is quadratic in each eigenvector, so no column's sign
    reaches it: a run whose eigenvector columns are negated at random is
    bit-identical to the plain run."""

    @given(sign_flip_chains())
    @settings(max_examples=60, deadline=None)
    def test_outputs_are_free_of_column_signs(self, drawn):
        spec, seed = drawn
        rng = np.random.default_rng(seed)
        eig, eigvec = harness.eig_sym_tridiag, qzd._eigvec_at

        def negate(v):  # each column of a matrix, or a vector as a whole
            return v * rng.choice([-1.0, 1.0], v.shape[1:])

        def flipped_eig(m):
            d = eig(m)
            return SpectralDecomposition(d.eigenvalues, negate(d.eigenvectors))

        def flipped_eigvec(m, w):
            return negate(eigvec(m, w))

        argv = ["--n", str(spec.n_sites), "--lambda-inv", repr(spec.lambda_inv)]
        if spec.delta_omega is not None:
            argv += ["--delta-omega", repr(spec.delta_omega)]

        def outputs(directory):
            try:
                result = run_scenario(spec, n_steps=200)
                trace = result.trace
                run = [
                    result.leakage.delta, result.leakage.attained_at, result.grid.t_max,
                    result.classification, result.order0.matrix, result.order1.matrix,
                    trace.populations, trace.leakage, trace.mid_overlap,
                ]
            except ZenoChainError as exc:
                run = [type(exc), str(exc)]
            if spec.fluctuation is None:  # no CLI flag builds a fluctuating chain
                for command in (["simulate", "--steps", "200"], ["effective"]):
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = cli.main([*command, *argv, "--out", str(Path(directory) / "o")])
                    run += [code, out.getvalue(), err.getvalue()]
                    for path in sorted(Path(directory).iterdir()):
                        run += [path.name, path.read_bytes()]
                        path.unlink()
            return run

        with tempfile.TemporaryDirectory() as directory:
            plain = outputs(directory)
            with mock.patch.object(harness, "eig_sym_tridiag", flipped_eig), mock.patch.object(
                qzd, "_eigvec_at", flipped_eigvec
            ):
                flipped = outputs(directory)
        assert len(flipped) == len(plain)
        for a, b in zip(plain, flipped):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestOneWatchAnalysis:
    @pytest.mark.parametrize(
        "spec, interior_mode",
        [
            (ChainSpec(6, 5.0), 0),
            (ChainSpec(7, 5.0), 1),
            (ChainSpec(7, 20.0, delta_omega=20.0), 0),
            (ChainSpec(PARITY_MIN_SIZE, 5.0), 0),
            (ChainSpec(PARITY_MIN_SIZE + 1, 5.0), 1),
        ],
        ids=["even", "odd", "modified", "even-split", "odd-split"],
    )
    def test_scenario_solves_and_groups_the_watch_once(self, spec, interior_mode, monkeypatch):
        # one eigendecomposition, of H_total; H_watch gets one Sturm count and
        # bisection of its interior block's levels next to zero, and one
        # inverse iteration only when that block holds a zero mode (the end
        # sites' 1 x 1 blocks take their unit vectors), no level grouping,
        # whichever module binding a caller goes through; the N x (steps+1) states are
        # evolved only on the first read of .trace, from the H_total spectrum
        # the run already holds, around the leakage series the run computed
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        names = (
            "eig_sym_tridiag",
            "_eigvals_near_zero",
            "_eigvec_at",
            "group_levels",
            "evolve_grid",
            "observe",
        )
        for mod in (linalg, perturbation, qzd, dynamics, harness, cli):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        result = run_scenario(spec, n_steps=50)
        once = Counter({
            "eig_sym_tridiag": 1,
            "_eigvals_near_zero": 1,
            "_eigvec_at": interior_mode,
            "observe": 1,
        })
        assert calls == once
        assert "group_levels" not in calls
        trace = result.trace
        assert result.trace is trace
        assert calls == once + Counter(evolve_grid=1)

    @pytest.mark.parametrize(
        "spec",
        [
            ChainSpec(40, 20.0),
            ChainSpec(40, 20.0, fluctuation=CouplingFluctuation(0.2, 7)),
            ChainSpec(41, 20.0, delta_omega=20.0),
        ],
        ids=["even", "fluctuating", "shifted"],
    )
    def test_end_modes_need_no_eigenvector_solver(self, spec, monkeypatch):
        # d0 = 2: the zero level is the end sites' 1 x 1 blocks, whose modes
        # are exactly their unit vectors, in site order, with no dstein call
        def solver(*args):
            raise AssertionError("dstein called")

        monkeypatch.setattr(linalg.lapack, "dstein", solver)
        want = np.zeros((spec.n_sites, 2))
        want[0, 0] = want[-1, 1] = 1.0
        assert np.array_equal(effective_reports(build_chain(spec)).zero_basis, want)

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(6, 20.0), ChainSpec(7, 20.0), ChainSpec(7, 20.0, delta_omega=20.0)],
        ids=["even", "odd", "modified"],
    )
    def test_no_dense_projector_is_built(self, spec, monkeypatch, capsys):
        # the zero level enters only through its N x d0 basis, and the
        # order-1 block through one bordered solve: neither a dense
        # projector nor the dense reduced resolvent is formed
        def forbidden(*args, **kwargs):
            raise AssertionError("dense N x N operator built")

        monkeypatch.setattr(perturbation.DegenerateLevel, "projector", property(forbidden))
        for mod in (perturbation, qzd, harness, cli):
            if hasattr(mod, "reduced_resolvent"):
                monkeypatch.setattr(mod, "reduced_resolvent", forbidden)
        run_scenario(spec, n_steps=50)
        argv = ["--n", str(spec.n_sites), "--lambda-inv", "20"]
        if spec.delta_omega is not None:
            argv += ["--delta-omega", "20"]
        assert cli.main(["classify", *argv]) == 0
        assert cli.main(["effective", *argv]) == 0


    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(6, 20.0), ChainSpec(7, 20.0), ChainSpec(7, 20.0, delta_omega=20.0)],
        ids=["even", "odd", "modified"],
    )
    def test_weak_matrix_is_not_densified(self, spec, monkeypatch):
        # H V0 comes from the end bonds of the tridiagonal H_weak
        def forbidden(*args, **kwargs):
            raise AssertionError("dense N x N H_weak built")

        monkeypatch.setattr(linalg.SymTridiagMatrix, "to_dense", forbidden)
        result = run_scenario(spec, n_steps=50)
        assert result.classification.order is not None
        assert cli.main(["effective", "--n", str(spec.n_sites), "--lambda-inv", "20"]) == 0

    def test_classifies_once_per_watch_analysis(self, monkeypatch):
        # the sweep's order is fixed per N: its commutator tests read no lam
        classify = qzd.WatchAnalysis.classify
        sizes = []

        def counting(self, psi0):
            sizes.append(self.h_watch.size)
            return classify(self, psi0)

        monkeypatch.setattr(qzd.WatchAnalysis, "classify", counting)
        run_scenario(ChainSpec(7, 20.0, delta_omega=20.0), n_steps=50)
        assert sizes == [7]
        run_fluctuation_trials(10, 0.05, 3, seed=0, n_steps=50)
        assert sizes == [7, 10]
        run_sweep([0.05, 0.1, 0.15], [4, 6, 8, 10], n_steps=200)
        assert sizes == [7, 10, 4, 6, 8, 10]


class TestBenchmarkBindings:
    def test_every_traced_binding_resolves(self, monkeypatch):
        # the benchmark's tracer patches these module attributes by name
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(module_spec)
        monkeypatch.setitem(sys.modules, module_spec.name, spans)  # for its dataclasses
        module_spec.loader.exec_module(spans)
        assert spans.BINDINGS
        for mod_name, attr, _span in spans.BINDINGS:
            mod = importlib.import_module(f"zenochain.{mod_name}")
            assert callable(getattr(mod, attr, None)), f"zenochain.{mod_name}.{attr}"

    def test_smoke_run_passes(self):
        # the benchmark parses the CLI's CSV and JSON and checks repeated runs
        # for identical bytes; a CLI change that breaks it must fail here
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--smoke"],
            cwd=root, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "smoke ok" in done.stdout


class TestPublicSurface:
    # the scenario workflow: input types, runners and results, the leakage
    # standard, the definitions the runners read, and the exceptions
    SUPPORTED = {
        "ChainSpec", "CouplingFluctuation", "build_chain", "interior_block",
        "run_scenario", "run_sweep", "run_fluctuation_trials", "ScenarioResult", "SweepResult",
        "check_prerequisite_ii", "QzdOrder",
        "phi_mid", "f_of_n", "lambda_bound",
        "AssumptionViolationError", "ClusteringError", "NumericalFailureError",
        "UnsupportedConfigurationError", "ValidationError",
        "ZenoChainError",
    }
    # names the package no longer re-exports, at the module that defines them
    FROM_MODULE = {
        "analytic": [
            "DELTA_FIT_COEFF", "big_g", "delta_estimate", "delta_exact_n4", "g_n",
            "hqzd0_odd", "hqzd1_even", "hqzd1_odd_modified", "qtilde_fluctuating_corner",
            "toeplitz_eigenpair",
        ],
        "chain": ["ChainHamiltonians"],
        "dynamics": [
            "EvolutionTrace", "LeakageReport", "Observation", "default_time_grid",
            "measure_leakage", "observe", "simulate",
        ],
        "harness": ["fit_slope_through_origin"],
        "linalg": [
            "SpectralDecomposition", "SymTridiagMatrix", "TimeGrid", "eig_sym_tridiag",
            "evolve_grid", "solve_bordered_tridiag",
        ],
        "perturbation": [
            "DegenerateLevel", "EffectiveHamiltonianReport", "ProjectorSet", "group_levels",
            "hqzd_order0", "hqzd_order1", "reduced_resolvent",
        ],
        "qzd": [
            "PrerequisiteIIResult", "QzdClassification", "WatchAnalysis", "analyze_watch",
            "classify",
        ],
    }

    def test_namespace_is_the_supported_surface(self):
        public = {
            name for name, value in vars(zenochain).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == self.SUPPORTED
        dropped = [(mod, name) for mod, names in self.FROM_MODULE.items() for name in names]
        assert len(dropped) == 37
        for mod_name, name in dropped:
            mod = importlib.import_module(f"zenochain.{mod_name}")
            assert hasattr(mod, name), f"zenochain.{mod_name}.{name}"
