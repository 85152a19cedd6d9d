"""Command-line interface: subcommands, config precedence, exit codes."""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain import cli, harness
from zenochain.analytic import lambda_bound
from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from zenochain.cli import main, read_config_file
from zenochain.errors import ValidationError
from zenochain.harness import effective_reports, run_fluctuation_trials, run_scenario, run_sweep
from zenochain.perturbation import EffectiveHamiltonianReport

from .oracles import dominant_effective_matrix, double_loop_nonzeros, per_value_csv


SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("value", ["-20", "-1.5", "-1.5e3", "-1e-3"])
    def test_negative_shift_in_every_form(self, tmp_path, capsys, value):
        # argparse took -1.5e3 and -1e-3 for options and exited 1; a separate
        # value, the = form and a config line must classify alike
        cfg = tmp_path / "shift.cfg"
        cfg.write_text(f"delta_omega={value}\n")
        outputs = []
        for argv in (["--delta-omega", value], [f"--delta-omega={value}"], ["--config", str(cfg)]):
            assert run_cli("classify", "--n", "9", *argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["order"] == "first"

    @pytest.mark.parametrize("argv", [
        ["--delta", "-1.5e3"],  # read "argument --delta-omega: expected one argument"
        ["--delta", "-15"],  # parsed as --delta-omega
        ["--lambda", "20"],
    ])
    def test_flag_prefixes_are_not_flags(self, capsys, argv):
        # a prefix escaped the join of a float flag and its negative value
        # one stderr line: the error, without argparse's usage line
        assert run_cli("classify", "--n", "9", *argv) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(argv)}\n"

    def test_far_cluster_does_not_stop_a_shifted_chain(self, capsys):
        # exited 1: levels far from zero chained into one cluster wider than
        # the tolerance, though the zero level itself is clear
        argv = ["--n", "61", "--lambda-inv", "7", "--delta-omega", "1e7"]
        assert run_cli("classify", *argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["order"], payload["zero_level_dimension"]) == ("first", 2)

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
        # the odd chain's order-1 block is round-off: at k = 1e-306 it
        # reads as a subnormal, not as an error
        assert run_cli("simulate", "--n", "5", "--k", "1e-306", "--out", str(tmp_path / "s")) == 0
        capsys.readouterr()
        got = self._json(capsys, "classify", "--n", "5", "--k", "1e-306")
        assert got["commutator_norm_order1"] == 0.0
        assert got["commutator_norm_order0"] == pytest.approx(1e-306, rel=1e-15)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "4", "--k", "1e307"],  # the strong bonds lambda_inv k overflow
        ["simulate", "--n", "40", "--k", "1e-307", "--steps", "10"],  # the window at k overflows
        ["classify", "--n", "5", "--k", "1e-310"],  # the order-0 commutator is subnormal
        ["fluctuate", "--n", "10", "--k", "1e-307"],  # the mean corner element overflows
    ])
    def test_k_beyond_the_double_range_names_k(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "k")) == 1
        assert capsys.readouterr().err.startswith("error: k: ")
        assert not list(tmp_path.iterdir())

    def test_spectrum_beyond_the_double_range_at_k_is_not_read(self, tmp_path, capsys):
        # exited 1 naming k: the H_total eigenvalues at k overflowed, a spectrum
        # no output reads now that the trace is evolved in units of k
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        out = tmp_path / "k"
        argv = ["simulate", "--n", "40", "--k", "5e306", "--steps", "10", "--out", str(out)]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "k.json").read_text(), parse_constant=reject)
        assert np.isfinite(summary["attained_at"]) and 0.0 < summary["delta"] < 1.0
        with open(tmp_path / "k.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 11 and np.all(np.isfinite(np.array(rows, dtype=float)))


def _count_fallback(monkeypatch) -> list[int]:
    """The number of cells of each batched Python format in cli, as it runs."""
    served = []

    class CountingFormat(bytes):
        def __mul__(self, count):
            served.append(count)
            return bytes(self) * count

    monkeypatch.setattr(cli, "_FALLBACK", CountingFormat(cli._FALLBACK))
    return served


class TestOutputBytes:
    """Every CLI output, byte for byte, against referees in tests/oracles.py."""

    @pytest.mark.parametrize(
        "argv, spec, window",
        [
            (["--n", "4"], ChainSpec(4, 20.0), {}),
            (["--n", "5"], ChainSpec(5, 20.0), {}),
            (["--n", "5", "--delta-omega", "20"], ChainSpec(5, 20.0, delta_omega=20.0), {}),
            (["--n", "6", "--t-max", "2.5", "--steps", "37"], ChainSpec(6, 20.0),
             dict(n_steps=37, t_max=2.5)),
        ],
        ids=["even4", "odd5", "modified5", "grid37"],
    )
    def test_simulate(self, tmp_path, capsys, argv, spec, window):
        out = tmp_path / "s"
        assert run_cli("simulate", *argv, "--lambda-inv", "20", "--out", str(out)) == 0
        result = run_scenario(spec, **window)
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
        rows = [
            [g, n, result.lambda_inv[i, j], result.delta[i, j]]
            for i, g in enumerate(result.g_values)
            for j, n in enumerate(result.n_values)
        ]
        want = per_value_csv(["G", "N", "lambda_inv", "delta"], rows)
        assert (tmp_path / "sw.csv").read_bytes() == want.encode()
        assert capsys.readouterr().out == (tmp_path / "sw.json").read_text()

    def test_fluctuate(self, tmp_path, capsys):
        out = tmp_path / "fl"
        assert run_cli("fluctuate", "--n", "10", "--trials", "20", "--out", str(out)) == 0
        corners, deltas = run_fluctuation_trials(10, 0.05, 20, 0)
        rows = [[j, c, d] for j, (c, d) in enumerate(zip(corners, deltas, strict=True))]
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
        for rep in (rep0, rep1):
            assert cli._matrix_nonzeros(rep, 0.0) == double_loop_nonzeros(rep.matrix, 0.0)

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

    def test_trimmed_scientific(self, tmp_path, monkeypatch):
        # m * 10**e whose mantissa m ends in 0-11 zeros (a bare digit loses its
        # point too) and the neighbours of each, in every cell of 1- and
        # 3-column tables of 1, 256 and 257 rows: a block's first cell and
        # one-column rows meet each edge of the separator-led records
        served = _count_fallback(monkeypatch)
        mantissas = ["123456789123"[:k] for k in range(1, 13)]
        mantissas += ["11", "15", "101", "99", "100000000001", "123456789"]
        exponents = [-5, -6, -7, -8, -9, -10, -11, -50, -98, -99]
        values = np.array([float(f"{d[0]}.{d[1:]}e{e}") for d in mantissas for e in exponents])
        cells = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, 1)])
        path = tmp_path / "t.csv"
        for n_rows in (1, 256, 257):
            for cols in (1, 3):
                size = n_rows * cols
                for start in range(0, cells.size, size):
                    table = np.resize(np.roll(cells, -start), (n_rows, cols))
                    header = [f"c{i}" for i in range(cols)]
                    cli._write_table(path, header, [table])
                    assert path.read_bytes() == per_value_csv(header, table.tolist()).encode()
        # Python formats only the powers of ten and their neighbours, whose
        # log10 may round up; every trimmed mantissa comes from the digit tables
        served.clear()
        cli._write_table(path, ["c"], [cells])
        assert sum(served) <= 3 * len(exponents)

    def test_fallback_serves_few_trace_cells(self, tmp_path, monkeypatch):
        # the Python formatter takes the cells the digit tables cannot prove;
        # on a trace that is about 1%, not every cell
        served = _count_fallback(monkeypatch)
        trace = run_scenario(ChainSpec(94, 20.0)).trace
        table = np.column_stack([trace.grid.times, trace.populations, trace.leakage])
        cli._write_table(tmp_path / "t.csv", ["c"] * table.shape[1], [table])
        assert 0 < sum(served) < 0.02 * table.size

    def test_nonzeros_of_dense_matrix(self):
        # a dense basis lists every entry: it pins the row-major order of the listing
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.normal(size=(9, 3)))[0]
        block = rng.normal(size=(3, 3))
        rep = EffectiveHamiltonianReport(3.0 * (block + block.T), basis)
        for cut in (0.0, 0.5, 2.0):
            assert cli._matrix_nonzeros(rep, cut) == double_loop_nonzeros(rep.matrix, cut)


class TestNonzeroListing:
    """The listings form only the rows of V0 that can carry an entry above
    the cut, and list what the dense N x N matrix lists."""

    @pytest.mark.parametrize("cut", [0.0, 1e-12, 1e-10])
    @pytest.mark.parametrize(
        "spec",
        [
            ChainSpec(6, 20.0),
            ChainSpec(130, 2.5),
            ChainSpec(7, 20.0),
            ChainSpec(131, 1e4),
            ChainSpec(9, 20.0, delta_omega=20.0),
            ChainSpec(30, 7.0, delta_omega=-1e3),
            ChainSpec(31, 20.0, delta_omega=1e8),
            ChainSpec(40, 20.0, fluctuation=CouplingFluctuation(0.1, 3)),
            ChainSpec(41, 20.0, fluctuation=CouplingFluctuation(0.2, 4)),
        ],
        ids=["even6", "even130", "odd7", "odd131", "shift20", "shift-1e3", "shift1e8",
             "noisy40", "noisy41"],
    )
    def test_rows_of_the_zero_basis_list_the_dense_matrix(self, spec, cut):
        analysis = effective_reports(build_chain(spec))
        for rep in (analysis.order0, analysis.order1):
            assert cli._matrix_nonzeros(rep, cut) == double_loop_nonzeros(rep.matrix, cut)

    def test_tiny_energy_unit_lists_every_entry(self, tmp_path):
        # a row bound from squares underflows here and lists nothing
        argv = ["--n", "5", "--k", "1e-300", "--steps", "20", "--out", str(tmp_path / "tiny")]
        assert run_cli("simulate", *argv) == 0
        summary = json.loads((tmp_path / "tiny.json").read_text())
        result = run_scenario(ChainSpec(5, 20.0, k=1e-300), n_steps=20)
        want = double_loop_nonzeros(dominant_effective_matrix(result), 1e-12 * 1e-300)
        assert len(want) == 4
        assert summary["effective_matrix_nonzeros"] == want

    @pytest.mark.parametrize("shift", [[], ["--delta-omega", "20"]], ids=["even", "shifted"])
    def test_effective_forms_no_n_by_n_array(self, capsys, shift):
        # an N x N matrix of 2000 sites alone is 30.5 MiB
        tracemalloc.start()
        try:
            assert run_cli("effective", "--n", "2000", *shift) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["order1_times_lambda"]["nonzeros"]
        assert peak < 8 * 2**20


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

    @pytest.mark.parametrize("delta0", ["1e-320", "5e-324"])
    def test_bound_beyond_double_range_exits_1(self, capsys, delta0):
        # printed inf and exited 0
        assert run_cli("bound", "--n", "30", "--delta0", delta0) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: delta0: ")

    def test_out_is_not_a_flag(self, tmp_path, monkeypatch, capsys):
        # printed the bound and wrote nothing, silently
        monkeypatch.chdir(tmp_path)
        assert run_cli("bound", "--n", "4", "--out", "x") == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --out x\n"
        assert not list(tmp_path.iterdir())

    def test_out_in_a_config_file_is_ignored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("n=4\nout=x\n")
        assert run_cli("bound", "--config", "run.cfg") == 0
        assert float(capsys.readouterr().out) == pytest.approx(np.sqrt(43.0), abs=1e-9)
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


class TestEntryPoint:
    """``python -m zenochain`` runs the same ``main`` as the installed script."""

    def run_module(self, *argv: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "zenochain", *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_bound_prints_and_exits_0(self, capsys):
        done = self.run_module("bound", "--n", "30")
        assert run_cli("bound", "--n", "30") == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
        assert float(done.stdout) == pytest.approx(lambda_bound(30, 0.1), rel=1e-10)

    def test_missing_n_exits_1(self):
        done = self.run_module("classify")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: n: required")


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
        assert json.loads((tmp_path / "sw2.json").read_text())["rows"] == 6

    def test_zero_delta_row_writes_strict_json(self, tmp_path, capsys):
        # every delta at G = 1e-20 is 0: its flatness was written as NaN
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        out = tmp_path / "sw"
        argv = ["sweep", "--g-list", "1e-20,0.1", "--n-list", "4", "--steps", "50"]
        assert run_cli(*argv, "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "sw.json").read_text(), parse_constant=reject)
        assert payload["per_g"][0]["flatness"] == 0.0

    @pytest.mark.parametrize("n_list, n", [("5", 5), ("4,2", 2)])
    def test_bad_length_names_the_sweep(self, tmp_path, capsys, n_list, n):
        # read "n_sites: must be an even integer >= 4", a flag sweep does not have
        assert run_cli("sweep", "--n-list", n_list, "--out", str(tmp_path / "sw")) == 1
        assert capsys.readouterr().err == f"error: sweep: N={n} must be an even integer >= 4\n"
        assert not list(tmp_path.iterdir())


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

    def test_negative_zero_amplitude_is_zero(self, tmp_path):
        # -0.0 passes the [0, 0.2] check; rng.uniform(0.0, -0.0) raised
        for value, out in (("-0.0", tmp_path / "neg"), ("0", tmp_path / "pos")):
            argv = ["fluctuate", "--n", "6", "--trials", "2", "--amplitude", value]
            assert run_cli(*argv, "--steps", "50", "--out", str(out)) == 0
        for suffix in (".csv", ".json"):
            neg, pos = (tmp_path / (name + suffix) for name in ("neg", "pos"))
            assert neg.read_bytes() == pos.read_bytes()

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
        corners, _ = run_fluctuation_trials(200, amplitude, 3, 0, k=k)
        for j, (corner, cell) in enumerate(zip(corners, written, strict=True)):
            noise = CouplingFluctuation(amplitude, j)
            block = interior_block(build_chain(ChainSpec(200, 20.0, k=k, fluctuation=noise)).h_watch)
            want = -np.linalg.inv(block.to_dense())[0, -1]
            assert abs(corner - want) <= 1e-12 * abs(want)
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
        assert capsys.readouterr().err == "error: argument --steps: invalid int value: 'x'\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.cfg"]

    def test_bad_config_value_is_1_under_a_flag(self, tmp_path, capsys):
        # the file's value is a flag word that argparse casts before the
        # command line's --n replaces it (as a default it was never cast: exit 0)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = abc\n")
        assert run_cli("bound", "--config", str(cfg), "--n", "6") == 1
        assert capsys.readouterr() == ("", "error: argument --n: invalid int value: 'abc'\n")

    def test_first_bad_value_in_flag_order(self, tmp_path, capsys):
        # --n comes before --steps in simulate's flags, whatever the file's order
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps=x\nn=a\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == "error: argument --n: invalid int value: 'a'\n"

    def test_no_config_value_leaks_into_the_next_call(self, tmp_path, capsys):
        # the calls share one parser, and a config file changes nothing in it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=6\nlambda-inv=5\n")
        assert run_cli("classify", "--config", str(cfg)) == 0
        with_config = json.loads(capsys.readouterr().out)
        assert run_cli("classify") == 1
        assert capsys.readouterr() == ("", "error: n: required (chain length)\n")
        assert run_cli("classify", "--n", "6") == 0
        assert json.loads(capsys.readouterr().out) != with_config  # lambda_inv is 20 again
        assert run_cli("classify", "--n", "6", "--lambda-inv", "5") == 0
        assert json.loads(capsys.readouterr().out) == with_config

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        # one top-level parser and one per subcommand, across every call
        built = []

        def counted_init(parser, *args, **kwargs):
            built.append(parser)
            argparse.ArgumentParser.__init__(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted_init)
        cli._parser.cache_clear()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=6\n")
        for argv in (["bound", "--n", "4"], ["classify", "--config", str(cfg)], ["classify"]):
            run_cli(*argv)
        assert len(built) == 1 + len(cli.COMMANDS)

    def test_import_builds_no_parser(self):
        # the benchmark's setup time includes the import; the first call builds
        done = subprocess.run(
            [sys.executable, "-c", "from zenochain import cli; print(cli._parser.cache_info())"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0 and "currsize=0" in done.stdout, done.stderr

    def test_config_that_is_not_utf8_is_1(self, tmp_path, capsys):
        # the decode error escaped as a UnicodeDecodeError traceback
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n=6\n\xff\xfe\n")
        assert run_cli("classify", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: not UTF-8 text (byte 4: invalid start byte)\n"
        cfg.write_bytes("n=6  # \u03b4\u03c9 unset\n".encode())
        assert run_cli("classify", "--config", str(cfg)) == 0

    def test_reader(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=1\nb = x y  # trailing comment\n\n")
        assert read_config_file(str(cfg), frozenset({"a", "b"})) == {"a": "1", "b": "x y"}
        with pytest.raises(ValidationError, match=r"c\.cfg:1: unknown key 'a'"):
            read_config_file(str(cfg), frozenset({"b"}))


class TestHelp:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_lists_exactly_the_subcommand_flags(self, capsys, command):
        # renders every FLAGS help text the subcommand takes
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        listed = re.findall(r"^  (--?[\w-]+)", capsys.readouterr().out, re.MULTILINE)
        names = ("config", *cli.COMMANDS[command][2])
        assert sorted(listed) == sorted(["-h", *("--" + n.replace("_", "-") for n in names)])
        assert ("--out" in listed) == (command != "bound")


class TestExitCodes:
    def test_validation_error_is_1(self, capsys):
        assert run_cli("simulate", "--n", "3", "--lambda-inv", "5") == 1
        assert capsys.readouterr().err == "error: n: must be an integer >= 4\n"

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--n", "3"], "n"),
        (["classify", "--n", "3"], "n"),
        (["bound", "--n", "5"], "n"),
        (["fluctuate", "--n", "9"], "n"),
        (["simulate", "--n", "10", "--steps", "0"], "steps"),
        (["sweep", "--steps", "0"], "steps"),
        (["fluctuate", "--n", "10", "--steps", "0"], "steps"),
        (["fluctuate", "--n", "10", "--seed", "-1"], "seed"),
        (["fluctuate", "--n", "10", "--amplitude", "0.3"], "amplitude"),
    ])
    def test_library_field_error_names_the_flag(self, tmp_path, monkeypatch, capsys, argv, flag):
        # read n_sites, n_steps, fluctuation.rng_seed or
        # fluctuation.relative_amplitude: fields of the library, no flags
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag}: "), lines
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--n", str(10**20)], "n"),
        (["fluctuate", "--n", "6", "--trials", str(10**20)], "trials"),
        (["simulate", "--n", "4", "--steps", str(10**20)], "steps"),
        (["simulate", "--n", "4", "--steps", str(10**40)], "steps"),
        (["simulate", "--n", "4", "--steps", str(np.iinfo(np.intp).max + 1)], "steps"),
        (["sweep", "--n-list", f"4,{10**20}"], "n_list: N=1e+20"),
        (["sweep", "--n-list", f"4,{np.iinfo(np.intp).max + 1}"], "n_list: N=9.22337e+18"),
        (["classify", "--n", str(2**60)], "n"),
        (["sweep", "--n-list", "4,9223372036854775806"], "n_list: N=9.22337e+18"),
        (["fluctuate", "--n", "10", "--trials", str(2**62)], "trials"),
    ])
    def test_count_beyond_an_array_index_is_1(self, tmp_path, capsys, argv, name):
        # numpy raised a traceback: "Maximum allowed dimension exceeded", an
        # OverflowError, a MemoryError for 596 GiB, a TypeError in f_of_n, or
        # "array is too big" for a float64 array of 2**60 elements or more
        assert run_cli(*argv, "--out", str(tmp_path / "c")) == 1
        limit = np.iinfo(np.intp).max // 8
        assert capsys.readouterr().err == f"error: {name}: must be at most {limit}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("raw, want", [
        ("9007199254740993", [9007199254740993]),  # 2**53 + 1: a float rounds it to 2**53
        (str(np.iinfo(np.intp).max // 8), [np.iinfo(np.intp).max // 8]),
        ("4.0,6", [4, 6]),
    ])
    def test_integer_list_entries_are_read_exactly(self, raw, want):
        got = cli._parse_int_list(raw)
        assert got == want and all(type(n) is int for n in got)

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 596. GiB", "out of memory: Unable to allocate 596. GiB"),
        ("", "out of memory"),
    ])
    def test_out_of_memory_is_2(self, tmp_path, capsys, monkeypatch, message, line):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_scenario", exhausted)
        assert run_cli("simulate", "--n", "4", "--out", str(tmp_path / "m")) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan"])
    def test_non_finite_chain_length_is_1(self, tmp_path, capsys, entry):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--n-list", f"4,{entry}", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: n_list: expected integers in list, got {entry}\n"
        assert not (tmp_path / "sw.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--g-list", "abc"], "g_list: could not parse list 'abc'"),
        (["--n-list", "abc"], "n_list: could not parse list 'abc'"),
        (["--n-list", "4.5"], "n_list: expected integers in list, got 4.5"),
    ])
    def test_bad_list_names_its_flag(self, tmp_path, capsys, argv, message):
        # named no input: "error: could not parse list 'abc'"
        assert run_cli("sweep", *argv, "--out", str(tmp_path / "sw")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

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
