"""Command-line interface: subcommands, config precedence, exit codes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from zenochain.cli import main, read_config_file


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

    def test_reader(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=1\nb = x y  # trailing comment\n\n")
        assert read_config_file(str(cfg)) == {"a": "1", "b": "x y"}


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
