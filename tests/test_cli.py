"""Command-line interface: subcommands, config precedence, exit codes."""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain import cli, harness
from zenochain.analytic import lambda_bound
from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from zenochain.cli import main, read_config_file
from zenochain.dynamics import TimeGrid
from zenochain.errors import ValidationError
from zenochain.harness import (
    dominant_effective_matrix,
    effective_reports,
    run_fluctuation_trials,
    run_scenario,
    run_sweep,
)

from .oracles import double_loop_nonzeros, per_value_csv


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestSimulate:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--n", "4", "--lambda-inv", "20", "--out", str(out)
        )
        assert code == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["delta"] == pytest.approx(0.0099, abs=0.001)
        assert summary["classification_order"] == "first"
        assert summary["effective_matrix_nonzeros"] == [
            [1, 4, pytest.approx(-0.05, abs=1e-12)]
        ]
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

        with open(tmp_path / "run.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "p_1", "p_2", "p_3", "p_4", "leakage"]
        assert len(rows) == 4002
        assert float(rows[1][1]) == 1.0

    def test_order1_listing_at_a_weak_coupling(self, tmp_path):
        # the order-1 matrix scales as lam k, and so does the listing's cut
        out = tmp_path / "weak"
        argv = ("--n", "4", "--lambda-inv", "1e13", "--steps", "10", "--out", str(out))
        assert run_cli("simulate", *argv) == 0
        summary = json.loads((tmp_path / "weak.json").read_text())
        assert summary["classification_order"] == "first"
        assert summary["effective_matrix_nonzeros"] == [
            [1, 4, pytest.approx(-1e-13, rel=1e-12)]
        ]

    def test_modified_five_site_summary(self, tmp_path):
        out = tmp_path / "mod"
        code = run_cli(
            "simulate",
            "--n", "5",
            "--lambda-inv", "20",
            "--delta-omega", "20",
            "--out", str(out),
        )
        assert code == 0
        summary = json.loads((tmp_path / "mod.json").read_text())
        assert summary["delta"] == pytest.approx(0.023, abs=0.003)
        assert summary["classification_order"] == "first"

    def test_odd_chain_trace_has_mid_overlap_column(self, tmp_path):
        out = tmp_path / "odd"
        assert run_cli("simulate", "--n", "5", "--lambda-inv", "20", "--out", str(out)) == 0
        with open(tmp_path / "odd.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[-1] == "mid_overlap"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "simulate", "--n", "6", "--lambda-inv", "10",
                "--steps", "500", "--out", str(out),
            ) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_out_prefix_keeps_its_dots(self, tmp_path):
        # PREFIX.csv / PREFIX.json are appended, not swapped in for ".5"
        for prefix in ("ratio37.5", "ratio37.25", "trace.csv"):
            assert run_cli(
                "simulate", "--n", "4", "--lambda-inv", "37.5",
                "--steps", "10", "--out", str(tmp_path / prefix),
            ) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "ratio37.25.csv", "ratio37.25.json",
            "ratio37.5.csv", "ratio37.5.json",
            "trace.csv", "trace.json",
        ]

    def test_zero_shift_is_the_unshifted_chain(self, tmp_path, capsys):
        # a zero delta_omega builds the unshifted Hamiltonian, so it gets the
        # unshifted window and mid-mode column, byte for byte
        argv = ["simulate", "--n", "5", "--lambda-inv", "20", "--steps", "300"]
        assert run_cli(*argv, "--out", str(tmp_path / "plain")) == 0
        assert run_cli(*argv, "--delta-omega", "0", "--out", str(tmp_path / "zero")) == 0
        for suffix in (".csv", ".json"):
            plain = (tmp_path / f"plain{suffix}").read_bytes()
            assert (tmp_path / f"zero{suffix}").read_bytes() == plain

    def test_shift_inside_tolerance_runs_on_its_zeroth_window(self, tmp_path, capsys):
        # lam * delta_omega = 5e-9 is inside the grouping tolerance: the chain
        # is zeroth order with d0 = 3 and runs on its zeroth-order cycle, 2 pi
        chain = ["--n", "5", "--lambda-inv", "20", "--delta-omega", "1e-7"]
        out = tmp_path / "d"
        assert run_cli("simulate", *chain, "--steps", "50", "--out", str(out)) == 0
        assert json.loads((tmp_path / "d.json").read_text())["classification_order"] == "zeroth"
        with open(tmp_path / "d.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert "mid_overlap" not in rows[0]
        assert rows[-1][0] == f"{2.0 * np.pi:.12g}"
        capsys.readouterr()
        assert run_cli("classify", *chain) == 0
        assert json.loads(capsys.readouterr().out)["zero_level_dimension"] == 3

    def test_explicit_window_override(self, tmp_path):
        out = tmp_path / "w"
        assert run_cli(
            "simulate", "--n", "4", "--lambda-inv", "5",
            "--t-max", "2.0", "--steps", "10", "--out", str(out),
        ) == 0
        with open(tmp_path / "w.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 12
        assert float(rows[-1][0]) == 2.0


class TestClassify:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--n", "4", "--lambda-inv", "20"], "first"),
            (["--n", "5", "--lambda-inv", "20"], "zeroth"),
            (["--n", "5", "--lambda-inv", "20", "--delta-omega", "20"], "first"),
        ],
    )
    def test_orders(self, capsys, argv, expected):
        assert run_cli("classify", *argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == expected
        assert payload["watch_annihilates_initial"] is True

    def test_zero_shift_needs_no_time_window(self, capsys):
        # the shifted-odd window pi * delta_omega / k^2 is empty at zero
        # shift; classify builds no window, so it reports the unshifted order
        assert run_cli("classify", "--n", "5", "--lambda-inv", "20", "--delta-omega", "0") == 0
        assert json.loads(capsys.readouterr().out)["order"] == "zeroth"

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(4, 20.0), ChainSpec(5, 20.0), ChainSpec(5, 20.0, delta_omega=20.0)],
        ids=["even4", "odd5", "modified5"],
    )
    def test_matches_scenario_classification(self, capsys, spec):
        c = run_scenario(spec).classification
        want = {
            "watch_annihilates_initial": c.watch_annihilates_initial,
            "zero_level_dimension": c.zero_level_dimension,
            "order": c.order.value,
            "prerequisite_i": c.prerequisite_i,
            "commutator_norm_order0": c.commutator_norm_order0,
            "commutator_norm_order1": c.commutator_norm_order1,
            "notes": c.notes,
        }
        argv = ["--n", str(spec.n_sites), "--lambda-inv", "20"]
        if spec.delta_omega is not None:
            argv += ["--delta-omega", "20"]
        assert run_cli("classify", *argv) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("k", ("1e-9", "1", "1e9"))
    def test_round_off_order1_commutator_reads_zero(self, capsys, k):
        # the unshifted odd chain's order-1 block vanishes in theory; its
        # round-off (about 1e-17 k) lies far below its scale and prints as 0
        assert run_cli("classify", "--n", "5", "--lambda-inv", "20", "--k", k) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == "zeroth"
        assert payload["commutator_norm_order1"] == 0.0
        assert payload["commutator_norm_order0"] == pytest.approx(float(k), rel=1e-12)

    def test_runs_no_dynamics(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("classify must not simulate")

        monkeypatch.setattr(cli, "run_scenario", forbidden)
        monkeypatch.setattr(harness, "simulate", forbidden)
        assert run_cli("classify", "--n", "4", "--lambda-inv", "20") == 0
        assert json.loads(capsys.readouterr().out)["order"] == "first"


class TestEffective:
    def test_four_site_matrices(self, capsys):
        assert run_cli("effective", "--n", "4", "--lambda-inv", "20") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order0"]["nonzeros"] == []
        assert payload["order0"]["eta1_common"] == pytest.approx(0.0, abs=1e-12)
        [[i, j, value]] = payload["order1_times_lambda"]["nonzeros"]
        assert (i, j) == (1, 4)
        assert value == pytest.approx(-0.05, abs=1e-12)

    @pytest.mark.parametrize("lambda_inv", [1e5, 1e11, 1e100])
    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_order1_listing_at_any_lambda(self, capsys, n_sites, lambda_inv):
        # the order-1 block scales as lam k, and so does the listing's cut
        assert run_cli("effective", "--n", str(n_sites), "--lambda-inv", repr(lambda_inv)) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {(i, j): v for i, j, v in payload["order1_times_lambda"]["nonzeros"]}
        want = (-1) ** (n_sites // 2 - 1) / lambda_inv
        assert entries[(1, n_sites)] == pytest.approx(want, rel=1e-12)

    def test_odd_chain_order0_couples_ends_to_middle(self, capsys):
        assert run_cli("effective", "--n", "5", "--lambda-inv", "20") == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {(i, j): v for i, j, v in payload["order0"]["nonzeros"]}
        assert entries[(1, 2)] == pytest.approx(0.5, abs=1e-12)
        assert entries[(1, 4)] == pytest.approx(-0.5, abs=1e-12)
        assert (1, 5) not in entries
        assert payload["order0"]["eta1_common"] is None


class TestSmallEnergyScale:
    """Nonzero cut-offs and the order-0 proportionality test scale with k."""

    CHAINS = [
        (["--n", "4"], None),
        (["--n", "5"], None),
        (["--n", "30"], None),
        (["--n", "5"], 20.0),
    ]
    IDS = ["even4", "odd5", "even30", "modified5"]

    @staticmethod
    def _scaled(argv: list[str], delta_omega: float | None, k: float) -> list[str]:
        argv = [*argv, "--lambda-inv", "20", "--k", repr(k)]
        if delta_omega is not None:
            argv += ["--delta-omega", repr(delta_omega * k)]
        return argv

    @staticmethod
    def _assert_scaled(small: list, ref: list, k: float) -> None:
        assert [e[:2] for e in small] == [e[:2] for e in ref]
        assert [e[2] for e in small] == pytest.approx([k * e[2] for e in ref], rel=1e-9)

    @pytest.mark.parametrize("argv, delta_omega", CHAINS, ids=IDS)
    def test_effective_listing(self, capsys, argv, delta_omega):
        payloads = []
        for k in (1.0, 1e-11):
            assert run_cli("effective", *self._scaled(argv, delta_omega, k)) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        ref, small = payloads
        assert ref["order0"]["nonzeros"] or ref["order1_times_lambda"]["nonzeros"]
        for key in ("order0", "order1_times_lambda"):
            self._assert_scaled(small[key]["nonzeros"], ref[key]["nonzeros"], 1e-11)
        if ref["order0"]["eta1_common"] is None:
            assert small["order0"]["eta1_common"] is None
        else:
            assert small["order0"]["eta1_common"] == pytest.approx(0.0, abs=1e-23)

    @pytest.mark.parametrize("argv, delta_omega", CHAINS, ids=IDS)
    def test_simulate_summary(self, tmp_path, argv, delta_omega):
        summaries = []
        for k in (1.0, 1e-11):
            out = tmp_path / f"k{k}"
            argv_k = self._scaled(argv, delta_omega, k)
            assert run_cli("simulate", *argv_k, "--steps", "50", "--out", str(out)) == 0
            summaries.append(json.loads(out.with_name(out.name + ".json").read_text()))
        ref, small = summaries
        assert ref["effective_matrix_nonzeros"]
        self._assert_scaled(
            small["effective_matrix_nonzeros"], ref["effective_matrix_nonzeros"], 1e-11
        )


class TestEnergyUnitEdges:
    """Every chain is solved in units of k, so k only scales what is read;
    inputs the unit chain cannot take exit 1 naming the input."""

    @staticmethod
    def _json(capsys, *argv: str) -> dict:
        assert run_cli(*argv) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("n, k", [(4, 1e154), (4, 1e155), (4, 1e-155), (5, 1e155), (5, 1e-155)])
    def test_classify_answers_as_at_k_1(self, capsys, n, k):
        # n=4 at 1e154 printed higher_or_none; 1e155 and 1e-155 exited 2
        ref = self._json(capsys, "classify", "--n", str(n))
        got = self._json(capsys, "classify", "--n", str(n), "--k", repr(k))
        for key in ("order", "zero_level_dimension", "prerequisite_i", "notes"):
            assert got[key] == ref[key]
        for key in ("commutator_norm_order0", "commutator_norm_order1"):
            assert got[key] == pytest.approx(k * ref[key], rel=1e-15)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("k", [1e155, 1e-155])
    def test_simulate_answers_as_at_k_1(self, tmp_path, n, k):
        summaries = []
        for name, extra in (("ref", []), ("k", ["--k", repr(k)])):
            out = tmp_path / name
            argv = ["simulate", "--n", str(n), "--steps", "200", "--out", str(out), *extra]
            assert run_cli(*argv) == 0
            summaries.append(json.loads(out.with_name(name + ".json").read_text()))
        ref, got = summaries
        assert got["delta"] == ref["delta"]
        assert got["classification_order"] == ref["classification_order"]
        assert got["attained_at"] == pytest.approx(ref["attained_at"] / k, rel=1e-14)
        assert [e[:2] for e in got["effective_matrix_nonzeros"]] == [
            e[:2] for e in ref["effective_matrix_nonzeros"]
        ]

    @pytest.mark.parametrize("k", [1e155, 1e-155])
    def test_fluctuate_answers_as_at_k_1(self, tmp_path, k):
        payloads = []
        for name, extra in (("ref", []), ("k", ["--k", repr(k)])):
            out = tmp_path / name
            argv = ["fluctuate", "--n", "10", "--trials", "3", "--steps", "200", "--out", str(out)]
            assert run_cli(*argv, *extra) == 0
            payloads.append(json.loads(out.with_name(name + ".json").read_text()))
        ref, got = payloads
        assert got["mean_delta"] == ref["mean_delta"]
        assert got["mean_corner_element"] == pytest.approx(ref["mean_corner_element"] / k, rel=1e-14)

    def test_effective_at_a_tiny_energy_unit(self, capsys):
        # exited 2: the bordered solve of the k = 1e-200 matrices was singular
        ref = self._json(capsys, "effective", "--n", "7")
        got = self._json(capsys, "effective", "--n", "7", "--k", "1e-200")
        assert ref["order0"]["nonzeros"]
        assert got["order0"]["eta1_common"] is ref["order0"]["eta1_common"] is None
        for key in ("order0", "order1_times_lambda"):
            assert [e[:2] for e in got[key]["nonzeros"]] == [e[:2] for e in ref[key]["nonzeros"]]
            assert [e[2] for e in got[key]["nonzeros"]] == pytest.approx(
                [1e-200 * e[2] for e in ref[key]["nonzeros"]], rel=1e-15
            )

    @pytest.mark.parametrize("delta_omega, k", [
        ("1e300", "1"),  # exited 2: "bordered 5x5 tridiagonal solve is singular"
        ("1e300", "1e-10"),  # delta_omega / k overflows
        ("1e-300", "1e100"),  # delta_omega / k underflows to 0, the unshifted chain
    ])
    def test_shift_out_of_reach_names_delta_omega(self, tmp_path, capsys, delta_omega, k):
        out = tmp_path / "s"
        argv = ["simulate", "--n", "5", "--delta-omega", delta_omega, "--k", k, "--out", str(out)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("error: delta_omega: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n, delta_omega, d0", [
        (9, "1e10", 8), (5, "1e10", 4), (6, "1e10", 5), (31, "1e12", 30),
    ])
    def test_shift_merging_interior_levels_names_delta_omega(
        self, tmp_path, capsys, n, delta_omega, d0
    ):
        # printed higher_or_none with a zero level of d0 dimensions, exit 0:
        # the grouping tolerance next to the shift took in interior levels
        out = tmp_path / "c"
        argv = ["classify", "--n", str(n), "--delta-omega", delta_omega, "--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delta_omega: ")
        assert f"zero level has {d0} > 3 dimensions" in err
        assert not list(tmp_path.iterdir())

    def test_near_zero_interior_level_of_a_shifted_chain_still_classifies(self, capsys):
        # N = 4's interior level near -1/shift genuinely lies within the tolerance
        got = self._json(capsys, "classify", "--n", "4", "--delta-omega", "1e12")
        assert got["zero_level_dimension"] == 3
        assert got["order"] == "higher_or_none"

    @pytest.mark.parametrize("argv, name", [
        (["fluctuate", "--n", "10", "--lambda-inv", "1e300"], "lambda_inv"),  # printed NaN
        (["simulate", "--n", "4", "--lambda-inv", "1e300"], "lambda_inv"),
        (["sweep", "--g-list", "1e-200", "--n-list", "4"], "sweep: G=1e-200"),  # asked for --t-max
    ])
    def test_window_beyond_the_double_range_names_its_input(self, tmp_path, capsys, argv, name):
        assert run_cli(*argv, "--out", str(tmp_path / "w")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: the window's largest phase")
        assert not list(tmp_path.iterdir())

    def test_round_off_may_read_below_the_normal_range(self, tmp_path, capsys):
        # the odd chain's order-1 block and the zero eigenvalue of H_total
        # are round-off: at k = 1e-306 they read as subnormals, not as an error
        assert run_cli("simulate", "--n", "5", "--k", "1e-306", "--out", str(tmp_path / "s")) == 0
        capsys.readouterr()
        got = self._json(capsys, "classify", "--n", "5", "--k", "1e-306")
        assert got["commutator_norm_order1"] == 0.0
        assert got["commutator_norm_order0"] == pytest.approx(1e-306, rel=1e-15)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "4", "--k", "1e307"],  # the strong bonds lambda_inv k overflow
        ["simulate", "--n", "40", "--k", "5e306", "--steps", "10"],  # H_total eigenvalues overflow
        ["classify", "--n", "5", "--k", "1e-310"],  # the order-0 commutator is subnormal
        ["fluctuate", "--n", "10", "--k", "1e-307"],  # the mean corner element overflows
    ])
    def test_k_beyond_the_double_range_names_k(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "k")) == 1
        assert capsys.readouterr().err.startswith("error: k: ")
        assert not list(tmp_path.iterdir())


class TestOutputBytes:
    """Every CLI output, byte for byte, against referees in tests/oracles.py."""

    @pytest.mark.parametrize(
        "argv, spec, grid",
        [
            (["--n", "4"], ChainSpec(4, 20.0), None),
            (["--n", "5"], ChainSpec(5, 20.0), None),
            (["--n", "5", "--delta-omega", "20"], ChainSpec(5, 20.0, delta_omega=20.0), None),
            (["--n", "6", "--t-max", "2.5", "--steps", "37"], ChainSpec(6, 20.0), TimeGrid(2.5, 37)),
        ],
        ids=["even4", "odd5", "modified5", "grid37"],
    )
    def test_simulate(self, tmp_path, capsys, argv, spec, grid):
        out = tmp_path / "s"
        assert run_cli("simulate", *argv, "--lambda-inv", "20", "--out", str(out)) == 0
        result = run_scenario(spec, grid=grid)
        trace = result.trace
        header = ["t"] + [f"p_{i + 1}" for i in range(spec.n_sites)] + ["leakage"]
        rows = [
            [t, *p, leak]
            for t, p, leak in zip(trace.grid.times, trace.populations, trace.leakage)
        ]
        if spec.n_sites % 2 == 1 and spec.delta_omega is None:
            header.append("mid_overlap")
            rows = [row + [m] for row, m in zip(rows, trace.mid_overlap)]
        assert (tmp_path / "s.csv").read_bytes() == per_value_csv(header, rows).encode()

        summary_text = (tmp_path / "s.json").read_text()
        assert capsys.readouterr().out == summary_text
        summary = json.loads(summary_text)
        assert summary["effective_matrix_nonzeros"] == double_loop_nonzeros(
            dominant_effective_matrix(result), 1e-12
        )

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run_cli(
            "sweep", "--g-list", "0.05,0.1", "--n-list", "4,6,8",
            "--steps", "300", "--out", str(out),
        ) == 0
        result = run_sweep([0.05, 0.1], [4, 6, 8], n_steps=300)
        rows = [[r.g, r.n_sites, r.lambda_inv, r.delta] for r in result.rows]
        want = per_value_csv(["G", "N", "lambda_inv", "delta"], rows)
        assert (tmp_path / "sw.csv").read_bytes() == want.encode()
        assert capsys.readouterr().out == (tmp_path / "sw.json").read_text()

    def test_fluctuate(self, tmp_path, capsys):
        out = tmp_path / "fl"
        assert run_cli("fluctuate", "--n", "10", "--trials", "20", "--out", str(out)) == 0
        trials = run_fluctuation_trials(10, 0.05, 20, 0)
        rows = [[t.seed_offset, t.corner_element, t.delta] for t in trials]
        want = per_value_csv(["seed_offset", "corner_element", "delta"], rows)
        assert (tmp_path / "fl.csv").read_bytes() == want.encode()
        payload_text = (tmp_path / "fl.json").read_text()
        assert capsys.readouterr().out == payload_text
        payload = json.loads(payload_text)
        assert payload["mean_corner_element"] == float(np.mean([r[1] for r in rows]))
        assert payload["mean_delta"] == float(np.mean([r[2] for r in rows]))

    def test_bound(self, capsys):
        assert run_cli("bound", "--n", "30") == 0
        assert capsys.readouterr().out == "{:.12g}".format(lambda_bound(30, 0.1)) + "\n"

    @pytest.mark.parametrize(
        "spec",
        [
            ChainSpec(4, 20.0),
            ChainSpec(5, 20.0),
            ChainSpec(30, 20.0),
            ChainSpec(31, 20.0),
            ChainSpec(31, 20.0, delta_omega=20.0),
        ],
        ids=["even4", "odd5", "even30", "odd31", "modified31"],
    )
    def test_effective_nonzeros(self, tmp_path, capsys, spec):
        argv = ["--n", str(spec.n_sites), "--lambda-inv", "20"]
        if spec.delta_omega is not None:
            argv += ["--delta-omega", "20"]
        out = tmp_path / "eff.json"
        assert run_cli("effective", *argv, "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        payload = json.loads(printed)

        analysis = effective_reports(build_chain(spec))
        rep0, rep1 = analysis.order0, analysis.order1
        assert payload["order0"]["nonzeros"] == double_loop_nonzeros(rep0.matrix, 1e-10)
        assert payload["order1_times_lambda"]["nonzeros"] == double_loop_nonzeros(
            rep1.matrix, 1e-10
        )
        # with no cut every round-off entry is listed, in the same order
        for m in (rep0.matrix, rep1.matrix):
            assert cli._matrix_nonzeros(m, 0.0) == double_loop_nonzeros(m, 0.0)

    @pytest.mark.parametrize("n_rows", [1, 255, 256, 257, 513])
    def test_table_in_blocks(self, tmp_path, n_rows):
        # the tables end before, on and after the edges of 256-row blocks;
        # the entries reach every %g branch
        special = [0.0, -0.0, -1.5, 5e-324, 2.2e-310, 1e-20, -1e20, 1e20,
                   3.0, -7.0, 1e16, 123456789012.5, 1e-5, 1e-4]
        rng = np.random.default_rng(n_rows)
        block = rng.normal(size=(n_rows, 4)) * 10.0 ** rng.integers(-25, 25, (n_rows, 4))
        k = min(len(special), block.size)
        block.ravel()[:k] = special[:k]
        times = np.arange(n_rows) * 0.25
        header = ["t", "a", "b", "c", "d"]
        cli._write_table(tmp_path / "t.csv", header, [times, block])
        rows = [[t, *r] for t, r in zip(times.tolist(), block.tolist())]
        assert (tmp_path / "t.csv").read_bytes() == per_value_csv(header, rows).encode()

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 300),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        drawn=st.lists(st.one_of(  # placed at random cells
            st.floats(),  # any double: nan, +-inf, +-0, subnormals, huge values
            st.floats(min_value=1e-100, max_value=1.0),  # where the digit tables apply
        ), max_size=20),
    )
    def test_any_table(self, tmp_path_factory, rows, cols, seed, drawn):
        # random bit patterns, log-uniform values across both digit-table
        # classes and their edges, and the drawn values
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, (rows, cols), dtype=np.uint64, endpoint=False)
        table = np.where(
            rng.random((rows, cols)) < 0.3,
            bits.view(np.float64),
            10.0 ** rng.uniform(-102.0, 1.0, (rows, cols)),
        )
        table.ravel()[rng.integers(0, table.size, len(drawn))] = drawn
        path = tmp_path_factory.mktemp("any") / "t.csv"
        header = [f"c{i}" for i in range(cols)]
        cli._write_table(path, header, [table])
        assert path.read_bytes() == per_value_csv(header, table.tolist()).encode()

    def test_adversarial_values(self, tmp_path):
        # rounding to 1, the fixed/scientific switch at 1e-4, the 2/3-digit
        # exponent switch, a trimmed mantissa, powers of two (2**-18 =
        # 3.814697265625e-06 is an exact tie at the 12th digit), and the
        # doubles nearest to decimal ties (m + 1/2) * 10**e, with neighbours
        values = [0.99999999999995, 9.99999999999995e-5, 9.99999999999995e-100, 1e-100,
                  1.5e-7, 123456789012.5, 0.5, 0.25, 1e-4, 1e-5, 0.1, 1e-99]
        values += [2.0**-k for k in range(1, 61)] + [(2 * i + 1) * 2.0**-53 for i in range(1, 40)]
        rng = np.random.default_rng(9)
        mantissas = rng.integers(10**11, 10**12, 200)
        exponents = rng.integers(-110, -11, 200)
        values += [(m + 0.5) * 10.0 ** float(e) for m, e in zip(mantissas, exponents)]
        values = np.array(values)
        table = np.column_stack([values, np.nextafter(values, 0), np.nextafter(values, 1)])
        cli._write_table(tmp_path / "t.csv", ["a", "b", "c"], [table])
        want = per_value_csv(["a", "b", "c"], table.tolist())
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("n_sites", [40, 67, 94])
    @pytest.mark.parametrize("kind", ["even", "odd", "modified"])
    def test_default_grid_traces(self, tmp_path, kind, n_sites):
        n = n_sites + (n_sites % 2 if kind == "even" else 1 - n_sites % 2)
        spec = ChainSpec(n, 20.0, delta_omega=20.0 if kind == "modified" else None)
        trace = run_scenario(spec).trace
        columns = [trace.grid.times, trace.populations, trace.leakage]
        if trace.mid_overlap is not None:
            columns.append(trace.mid_overlap)
        table = np.column_stack(columns)
        header = [f"c{i}" for i in range(table.shape[1])]
        cli._write_table(tmp_path / "t.csv", header, [table])
        assert (tmp_path / "t.csv").read_bytes() == per_value_csv(header, table.tolist()).encode()

    def test_fallback_serves_few_trace_cells(self, tmp_path, monkeypatch):
        # the Python formatter takes the cells the digit tables cannot prove;
        # on a trace that is a few percent, not every cell
        served = []

        class CountingFormat(bytes):
            def __mul__(self, count):
                served.append(count)
                return bytes(self) * count

        monkeypatch.setattr(cli, "_FALLBACK", CountingFormat(cli._FALLBACK))
        trace = run_scenario(ChainSpec(94, 20.0)).trace
        table = np.column_stack([trace.grid.times, trace.populations, trace.leakage])
        cli._write_table(tmp_path / "t.csv", ["c"] * table.shape[1], [table])
        assert 0 < sum(served) < 0.1 * table.size

    def test_nonzeros_of_dense_matrix(self):
        # a dense matrix pins the row-major order of the listing
        m = np.random.default_rng(0).normal(size=(9, 9))
        m = m + m.T
        for cut in (0.0, 0.5, 2.0):
            assert cli._matrix_nonzeros(m, cut) == double_loop_nonzeros(m, cut)


class TestWriteTable:
    def test_stacks_one_block_at_a_time(self, tmp_path, monkeypatch):
        # the writer never holds the whole table: each stacked block has at
        # most WRITE_BLOCK_ROWS rows, and the bytes are those of the whole table
        n_rows = 2 * cli.WRITE_BLOCK_ROWS + 3
        times = np.arange(n_rows) * 0.5
        block = np.random.default_rng(1).random((n_rows, 3))
        header = ["t", "a", "b", "c"]
        stacked = []
        column_stack = np.column_stack

        def recording_column_stack(tup):
            table = column_stack(tup)
            if np.shares_memory(tup[0], times):  # the table's columns, not digit words
                stacked.append(table.shape[0])
            return table

        monkeypatch.setattr(cli.np, "column_stack", recording_column_stack)
        cli._write_table(tmp_path / "t.csv", header, [times, block])
        assert stacked and max(stacked) <= cli.WRITE_BLOCK_ROWS
        assert sum(stacked) == n_rows
        rows = [[t, *r] for t, r in zip(times.tolist(), block.tolist())]
        assert (tmp_path / "t.csv").read_bytes() == per_value_csv(header, rows).encode()


class TestBound:
    def test_four_site(self, capsys):
        assert run_cli("bound", "--n", "4", "--delta0", "0.1") == 0
        assert float(capsys.readouterr().out) == pytest.approx(6.5574385243, abs=1e-9)

    def test_default_delta0(self, capsys):
        assert run_cli("bound", "--n", "4") == 0
        assert float(capsys.readouterr().out) == pytest.approx(np.sqrt(43.0), abs=1e-9)

    def test_out_of_validity_exits_1(self, capsys):
        assert run_cli("bound", "--n", "10", "--delta0", "0.25") == 1
        assert "delta0" in capsys.readouterr().err


class TestSweep:
    def test_single_cell(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run_cli(
            "sweep", "--g-list", "0.1", "--n-list", "4",
            "--steps", "1000", "--out", str(out),
        )
        assert code == 0
        payload = json.loads((tmp_path / "sw.json").read_text())
        with open(tmp_path / "sw.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["G", "N", "lambda_inv", "delta"]
        assert len(rows) == 2
        delta = float(rows[1][3])
        assert payload["slope"] == pytest.approx(delta / 0.01)

    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "sw2"
        assert run_cli(
            "sweep", "--g-list", "0.05,0.1", "--n-list", "4,6,8",
            "--steps", "300", "--out", str(out),
        ) == 0
        with open(tmp_path / "sw2.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 7


class TestFluctuate:
    def test_zero_amplitude_rows_identical(self, tmp_path):
        out = tmp_path / "fl"
        code = run_cli(
            "fluctuate", "--n", "6", "--amplitude", "0", "--trials", "3",
            "--steps", "300", "--out", str(out),
        )
        assert code == 0
        with open(tmp_path / "fl.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed_offset", "corner_element", "delta"]
        assert len(rows) == 4
        assert rows[1][1:] == rows[2][1:] == rows[3][1:]

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "fa", tmp_path / "fb"
        for out in (a, b):
            assert run_cli(
                "fluctuate", "--n", "8", "--amplitude", "0.05", "--trials", "4",
                "--seed", "11", "--steps", "300", "--out", str(out),
            ) == 0
        assert (tmp_path / "fa.csv").read_bytes() == (tmp_path / "fb.csv").read_bytes()

    @pytest.mark.parametrize(
        "flag, amplitude, k", [("--amplitude", 0.2, 1.0), ("--k", 0.05, 1e3)], ids=["noisy", "k1e3"]
    )
    def test_long_chain_corners_match_dense_inverse(self, tmp_path, flag, amplitude, k):
        # N = 200 blocks with condition numbers 91-295, while |det| is 1e-15
        # of max|entry|^N (noisy) or overflows a double (k = 1e3)
        value = str(amplitude if flag == "--amplitude" else k)
        out = tmp_path / "fl"
        argv = ["fluctuate", "--n", "200", flag, value, "--trials", "3", "--out", str(out)]
        assert run_cli(*argv) == 0
        assert np.isfinite(json.loads((tmp_path / "fl.json").read_text())["mean_corner_element"])
        with open(tmp_path / "fl.csv", newline="") as fh:
            written = [float(row[1]) for row in list(csv.reader(fh))[1:]]
        trials = run_fluctuation_trials(200, amplitude, 3, 0, k=k)
        for trial, cell in zip(trials, written, strict=True):
            noise = CouplingFluctuation(amplitude, trial.seed_offset)
            block = interior_block(build_chain(ChainSpec(200, 20.0, k=k, fluctuation=noise)).h_watch)
            want = -np.linalg.inv(block.to_dense())[0, -1]
            assert abs(trial.corner_element - want) <= 1e-12 * abs(want)
            assert abs(cell - want) <= 1e-11 * abs(want)  # the CSV keeps 12 digits


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nlambda-inv = 20\ndelta0 = 0.1\n# comment\n")
        assert run_cli("bound", "--config", str(cfg)) == 0
        assert float(capsys.readouterr().out) == pytest.approx(np.sqrt(43.0), abs=1e-9)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\ndelta0=0.1\n")
        assert run_cli("bound", "--config", str(cfg), "--n", "6") == 0
        from zenochain.analytic import lambda_bound

        assert float(capsys.readouterr().out) == pytest.approx(
            lambda_bound(6, 0.1), abs=1e-9
        )

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 4\n")
        assert run_cli("bound", "--config", str(cfg)) == 1

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        # a misspelt key must not fall back to the default silently
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n=4\nlambda_inv=20\nstpes=10\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err and "stpes" in err
        assert not (tmp_path / "x.csv").exists()

    def test_config_key_inside_a_config_file_is_rejected(self, tmp_path, capsys):
        # a nested config line would be silently ignored, so it is an unknown key
        cfg = tmp_path / "nested.cfg"
        cfg.write_text("n=4\nconfig=other.cfg\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "'config'" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("lines, repeated", [
        ("n=4\nsteps=10\nn=6\n", "'n' repeats line 1"),
        ("n=4\nlambda-inv=20\nlambda_inv=30\n", "'lambda_inv' repeats line 2"),
    ], ids=["same-spelling", "dash-and-underscore"])
    def test_repeated_key_is_rejected(self, tmp_path, capsys, lines, repeated):
        # the last value must not win silently
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(lines)
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
        assert f"{cfg}:3: key {repeated}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_keys_of_other_subcommands_are_accepted(self, tmp_path, capsys):
        # one config file may serve several subcommands
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("n=6\ndelta0=0.1\ng-list=0.1\ntrials=3\n")
        assert run_cli("bound", "--config", str(cfg)) == 0
        assert float(capsys.readouterr().out) == pytest.approx(lambda_bound(6, 0.1), abs=1e-9)

    @pytest.mark.parametrize("command, options", [
        ("simulate", {"n": "5", "lambda-inv": "20", "delta-omega": "20", "k": "1.5",
                      "t-max": "2.5", "steps": "37"}),
        ("sweep", {"g-list": "0.05,0.1", "n-list": "4,6", "steps": "200"}),
        ("fluctuate", {"n": "6", "amplitude": "0.04", "trials": "3", "seed": "5",
                       "lambda-inv": "15", "k": "0.5", "steps": "200"}),
        ("classify", {"n": "5", "lambda-inv": "20", "delta-omega": "20", "k": "2"}),
        ("effective", {"n": "7", "lambda-inv": "12", "k": "0.5"}),
    ])
    def test_config_equals_flags(self, tmp_path, capsys, command, options):
        # every subcommand reads its flags from a config file as from the
        # command line: the same files and the same stdout
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        by_flags.mkdir()
        by_config.mkdir()
        out = "run.json" if command in ("classify", "effective") else "run"
        flags = [token for key, value in options.items() for token in (f"--{key}", value)]
        assert run_cli(command, *flags, "--out", str(by_flags / out)) == 0
        printed = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        lines = [f"{key.replace('-', '_')} = {value}" for key, value in options.items()]
        cfg.write_text("\n".join(lines + [f"out = {by_config / out}"]) + "\n")
        assert run_cli(command, "--config", str(cfg)) == 0
        assert capsys.readouterr().out == printed
        written = sorted(f.name for f in by_flags.iterdir())
        assert written and sorted(f.name for f in by_config.iterdir()) == written
        for name in written:
            assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()

    def test_bad_config_value_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=4\nsteps=x\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
        assert "argument --steps: invalid int value: 'x'" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.cfg"]

    def test_reader(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=1\nb = x y  # trailing comment\n\n")
        assert read_config_file(str(cfg), frozenset({"a", "b"})) == {"a": "1", "b": "x y"}
        with pytest.raises(ValidationError, match=r"c\.cfg:1: unknown key 'a'"):
            read_config_file(str(cfg), frozenset({"b"}))


class TestExitCodes:
    def test_validation_error_is_1(self, capsys):
        assert run_cli("simulate", "--n", "3", "--lambda-inv", "5") == 1
        assert "n_sites" in capsys.readouterr().err

    def test_unknown_flag_is_1(self, capsys):
        assert run_cli("simulate", "--frequency", "3") == 1

    def test_missing_required_value_is_1(self, capsys):
        assert run_cli("simulate", "--lambda-inv", "5") == 1
        assert "n" in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_window_is_1(self, tmp_path, capsys, t_max):
        out = tmp_path / "w"
        argv = ["simulate", "--n", "4", "--t-max", t_max, "--steps", "10", "--out", str(out)]
        assert run_cli(*argv) == 1
        assert "error: t_max" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists() and not (tmp_path / "w.json").exists()

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan"])
    def test_non_finite_chain_length_is_1(self, tmp_path, capsys, entry):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--n-list", f"4,{entry}", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: expected integers in list, got {entry}\n"
        assert not (tmp_path / "sw.csv").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag, field", [
        ("--lambda-inv", "lambda_inv"), ("--k", "k"), ("--delta-omega", "delta_omega"),
    ])
    def test_non_finite_chain_field_is_1(self, tmp_path, capsys, flag, field, value):
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape as an exception
            assert run_cli("simulate", "--n", "5", flag, value, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {field}: must be finite, got {value}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("g", ["0", "-0.1", "nan", "inf"])
    def test_bad_g_is_1(self, tmp_path, capsys, g):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--g-list", f"0.1,{g}", "--n-list", "4", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: sweep: G must be finite and positive, got {g}\n"
        assert not (tmp_path / "sw.csv").exists()

    @pytest.mark.parametrize("g_list, n_list, message", [
        ("0.1,0.1", "4,6", "G=0.1 is repeated"),
        ("0.05,0.1", "4,6,4", "N=4 is repeated"),
    ])
    def test_repeated_sweep_value_is_1(self, tmp_path, capsys, g_list, n_list, message):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--g-list", g_list, "--n-list", n_list, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: sweep: {message}\n"
        assert not (tmp_path / "sw.csv").exists()

    def test_io_error_is_3(self, tmp_path):
        out = tmp_path / "missing_dir" / "x"
        assert run_cli(
            "simulate", "--n", "4", "--lambda-inv", "5", "--out", str(out)
        ) == 3
