"""Scenario runner, sweep engine, fluctuation trials, slope fitting."""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from zenochain import cli, dynamics, harness, linalg, perturbation, qzd
from zenochain.analytic import f_of_n, qtilde_fluctuating_corner
from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain
from zenochain.dynamics import default_time_grid, leakage_series, measure_leakage
from zenochain.errors import UnsupportedConfigurationError, ValidationError
from zenochain.harness import (
    dominant_effective_matrix,
    effective_reports,
    fit_slope_through_origin,
    run_fluctuation_trials,
    run_scenario,
    run_sweep,
)
from zenochain.linalg import eig_sym_tridiag
from zenochain.qzd import QzdOrder


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
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.lambda_inv == pytest.approx(f_of_n(4) / g)
        assert result.slope == pytest.approx(row.delta / g**2)
        assert result.flatness[0] == 0.0

    def test_row_grid_and_lambda_assignment(self):
        result = run_sweep([0.05, 0.1], [4, 6, 8], n_steps=500)
        assert len(result.rows) == 6
        for row in result.rows:
            assert row.lambda_inv == pytest.approx(f_of_n(row.n_sites) / row.g)
            assert 0.0 < row.delta < 1.0

    def test_mean_flatness_definition(self):
        result = run_sweep([0.1], [4, 6, 8, 10], n_steps=1000)
        deltas = np.array([row.delta for row in result.rows])
        assert result.mean_delta[0] == pytest.approx(float(np.mean(deltas)))
        expect_flat = float(np.max(np.abs(deltas - deltas.mean())) / deltas.mean())
        assert result.flatness[0] == pytest.approx(expect_flat)

    def test_lambda_inv_below_one_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep([2.0], [4], n_steps=100)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep([], [4])

    def test_odd_length_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep([0.1], [5])

    @pytest.mark.parametrize("g", [0.0, -0.1, np.nan, np.inf])
    def test_g_must_be_finite_and_positive(self, monkeypatch, g):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_end_leakage", no_cell)
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

        monkeypatch.setattr(harness, "_end_leakage", no_cell)
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
        rows = run_fluctuation_trials(6, 0.0, 3, seed=0, n_steps=500)
        baseline = run_scenario(ChainSpec(6, 20.0), n_steps=500)
        base_corner = qtilde_fluctuating_corner(np.full(3, 1.0))
        for row in rows:
            assert row.corner_element == pytest.approx(base_corner, abs=1e-12)
            assert row.delta == pytest.approx(baseline.leakage.delta, abs=1e-12)

    def test_corner_matches_closed_form_per_trial(self):
        rows = run_fluctuation_trials(10, 0.05, 5, seed=7, n_steps=200)
        for row in rows:
            spec = ChainSpec(
                10, 20.0, fluctuation=CouplingFluctuation(0.05, 7 + row.seed_offset)
            )
            couplings = build_chain(spec).h_watch.offdiag[1:-1]
            assert row.corner_element == pytest.approx(
                qtilde_fluctuating_corner(couplings), abs=1e-10
            )

    def test_every_trial_uses_the_noise_free_window(self):
        # the window is computed once, from the chain without coupling noise
        rows = run_fluctuation_trials(10, 0.05, 5, seed=7, n_steps=200)
        grid = default_time_grid(build_chain(ChainSpec(10, 20.0)), 200)
        ends = np.eye(10)[:, [0, -1]]
        for row in rows:
            spec = ChainSpec(10, 20.0, fluctuation=CouplingFluctuation(0.05, 7 + row.seed_offset))
            d = eig_sym_tridiag(build_chain(spec).h_total)
            assert row.delta == float(np.max(leakage_series(d, ends[:, 0], ends, grid)))

    def test_deterministic_given_seed(self):
        a = run_fluctuation_trials(8, 0.05, 4, seed=3, n_steps=200)
        b = run_fluctuation_trials(8, 0.05, 4, seed=3, n_steps=200)
        assert a == b

    def test_odd_length_rejected(self):
        with pytest.raises(ValidationError):
            run_fluctuation_trials(5, 0.05, 2, seed=0)

    def test_trial_count_validated(self):
        with pytest.raises(ValidationError):
            run_fluctuation_trials(6, 0.05, 0, seed=0)


class TestScenario:
    def test_dominant_matrix_follows_classification(self):
        first = run_scenario(ChainSpec(4, 20.0), n_steps=100)
        assert first.classification.order is QzdOrder.FIRST
        assert np.array_equal(dominant_effective_matrix(first), first.order1.matrix)

        zeroth = run_scenario(ChainSpec(5, 20.0), n_steps=100)
        assert zeroth.classification.order is QzdOrder.ZEROTH
        assert np.array_equal(dominant_effective_matrix(zeroth), zeroth.order0.matrix)

    def test_mid_overlap_only_for_unmodified_odd(self):
        assert run_scenario(ChainSpec(5, 20.0), n_steps=50).trace.mid_overlap is not None
        assert run_scenario(ChainSpec(4, 20.0), n_steps=50).trace.mid_overlap is None
        modified = run_scenario(ChainSpec(5, 20.0, delta_omega=20.0), n_steps=50)
        assert modified.trace.mid_overlap is None

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(30, 20.0), ChainSpec(31, 7.0), ChainSpec(29, 20.0, delta_omega=20.0)],
        ids=["even", "odd", "modified"],
    )
    def test_leakage_matches_the_trace(self, spec):
        result = run_scenario(spec)
        from_trace = measure_leakage(result.trace)
        assert abs(result.leakage.delta - from_trace.delta) <= 1e-13
        assert result.leakage.attained_at == from_trace.attained_at
        assert (result.leakage.t_max, result.leakage.n_steps) == (
            from_trace.t_max, from_trace.n_steps
        )

    def test_shift_inside_tolerance_runs_on_its_zeroth_window(self):
        # the shift lam * delta_omega = 5e-9 lies inside the grouping
        # tolerance, so the chain is zeroth order with d0 = 3, and its window
        # is the unshifted odd chain's zeroth-order cycle pi sqrt(N-1) / k
        result = run_scenario(ChainSpec(5, 20.0, delta_omega=1e-7), n_steps=200)
        assert result.classification.order is QzdOrder.ZEROTH
        assert result.zero_basis.shape == (5, 3)
        assert result.grid.t_max == pytest.approx(2.0 * np.pi, rel=1e-12)

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


class TestOneWatchAnalysis:
    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(6, 5.0), ChainSpec(7, 5.0), ChainSpec(7, 20.0, delta_omega=20.0)],
        ids=["even", "odd", "modified"],
    )
    def test_scenario_solves_and_groups_the_watch_once(self, spec, monkeypatch):
        # one eigendecomposition, of H_total; H_watch gets one eigenvalue
        # solve, one grouping and its zero-level eigenvectors only, whichever
        # module binding a caller goes through; the N x (steps+1) states are
        # evolved only on the first read of .trace, from the H_total spectrum
        # the run already holds
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        names = (
            "eig_sym_tridiag",
            "eigvals_sym_tridiag",
            "eigvecs_sym_tridiag",
            "group_eigenvalues",
            "group_levels",
            "evolve_grid",
        )
        for mod in (linalg, perturbation, qzd, dynamics, harness, cli):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        result = run_scenario(spec, n_steps=50)
        once = {
            "eig_sym_tridiag": 1,
            "eigvals_sym_tridiag": 1,
            "group_eigenvalues": 1,
            "eigvecs_sym_tridiag": 1,
        }
        assert calls == once
        trace = result.trace
        assert result.trace is trace
        assert calls == {**once, "evolve_grid": 1}

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
