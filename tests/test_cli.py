"""Command-line interface: subcommands, config precedence, exit codes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from zenochain import cli, harness
from zenochain.analytic import lambda_bound
from zenochain.chain import ChainSpec, build_chain
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

    def test_nonzeros_of_dense_matrix(self):
        # a dense matrix pins the row-major order of the listing
        m = np.random.default_rng(0).normal(size=(9, 9))
        m = m + m.T
        for cut in (0.0, 0.5, 2.0):
            assert cli._matrix_nonzeros(m, cut) == double_loop_nonzeros(m, cut)


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

    def test_keys_of_other_subcommands_are_accepted(self, tmp_path, capsys):
        # one config file may serve several subcommands
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("n=6\ndelta0=0.1\ng-list=0.1\ntrials=3\n")
        assert run_cli("bound", "--config", str(cfg)) == 0
        assert float(capsys.readouterr().out) == pytest.approx(lambda_bound(6, 0.1), abs=1e-9)

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

    def test_io_error_is_3(self, tmp_path):
        out = tmp_path / "missing_dir" / "x"
        assert run_cli(
            "simulate", "--n", "4", "--lambda-inv", "5", "--out", str(out)
        ) == 3

    def test_threads_env_validated(self, monkeypatch):
        monkeypatch.setenv("ZENO_CHAIN_THREADS", "-2")
        assert run_cli("sweep", "--g-list", "0.1", "--n-list", "4", "--steps", "50") == 1
