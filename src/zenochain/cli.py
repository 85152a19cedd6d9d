"""Command-line interface.

Subcommands: simulate, classify, effective, bound, sweep, fluctuate.
Options may also come from a config file of key=value lines (--config);
command-line flags take precedence over config values. Exit codes:
0 success, 1 validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import analytic
from .chain import ChainSpec
from .dynamics import DEFAULT_N_STEPS, TimeGrid
from .errors import NumericalFailureError, ValidationError
from .harness import (
    dominant_effective_matrix,
    run_fluctuation_trials,
    run_scenario,
    run_sweep,
    effective_reports,
)

FLOAT_FORMAT = "{:.12g}"

DEFAULTS = {
    "k": 1.0,
    "delta0": 0.1,
    "steps": DEFAULT_N_STEPS,
    "g_list": "0.05,0.1,0.15,0.2",
    "n_list": "4,6,8,10,12,14,16,18,20,22,24,26,28,30",
    "amplitude": 0.05,
    "trials": 100,
    "seed": 0,
    "lambda_inv": 20.0,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _fmt(x: float) -> str:
    return FLOAT_FORMAT.format(float(x))


def _parse_float_list(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"could not parse list {raw!r}") from exc


def _parse_int_list(raw: str) -> list[int]:
    values = _parse_float_list(raw)
    out = []
    for v in values:
        if v != int(v):
            raise ValidationError(f"expected integers in list, got {v}")
        out.append(int(v))
    return out


def read_config_file(path: str) -> dict[str, str]:
    """Parse a config file of key=value lines ('#' starts a comment)."""
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, key: str, cast=None):
    """Flag value if given, else config value, else built-in default."""
    value = getattr(args, key, None)
    if value is None:
        value = args._config.get(key)
        if value is not None and cast is not None:
            try:
                value = cast(value)
            except ValidationError:
                raise
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"config value {key}={value!r} is invalid") from exc
    if value is None:
        value = DEFAULTS.get(key)
    return value


def _chain_spec(args: argparse.Namespace) -> ChainSpec:
    n = _resolve(args, "n", int)
    if n is None:
        raise ValidationError("n: required (chain length)")
    lambda_inv = _resolve(args, "lambda_inv", float)
    k = _resolve(args, "k", float)
    delta_omega = _resolve(args, "delta_omega", float)
    return ChainSpec(
        n_sites=n, lambda_inv=lambda_inv, k=k, delta_omega=delta_omega
    )


def _out_paths(args: argparse.Namespace, default_prefix: str) -> tuple[Path, Path]:
    prefix = str(Path(_resolve(args, "out") or default_prefix)).removesuffix(".csv")
    return Path(prefix + ".csv"), Path(prefix + ".json")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _matrix_nonzeros(matrix: np.ndarray, tol: float = 1e-12) -> list[list]:
    """Entries [i, j, value] (1-based, upper triangle) above tol."""
    out = []
    n = matrix.shape[0]
    for i in range(n):
        for j in range(i, n):
            if abs(matrix[i, j]) > tol:
                out.append([i + 1, j + 1, float(matrix[i, j])])
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    steps = _resolve(args, "steps", int)
    t_max = _resolve(args, "t_max", float)
    grid = TimeGrid(t_max, steps) if t_max is not None else None
    result = run_scenario(spec, grid=grid, n_steps=steps)

    csv_path, json_path = _out_paths(args, "simulate")
    trace = result.trace
    header = ["t"] + [f"p_{i + 1}" for i in range(spec.n_sites)] + ["leakage"]
    if trace.mid_overlap is not None:
        header.append("mid_overlap")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for j, t in enumerate(trace.grid.times):
            row = [_fmt(t)] + [_fmt(p) for p in trace.populations[j]]
            row.append(_fmt(trace.leakage[j]))
            if trace.mid_overlap is not None:
                row.append(_fmt(trace.mid_overlap[j]))
            writer.writerow(row)

    summary = {
        "delta": result.leakage.delta,
        "attained_at": result.leakage.attained_at,
        "classification_order": result.classification.order.value,
        "effective_matrix_nonzeros": _matrix_nonzeros(
            dominant_effective_matrix(result)
        ),
    }
    _write_json(json_path, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    result = run_scenario(spec, n_steps=8)  # classification needs no long trace
    c = result.classification
    payload = {
        "watch_annihilates_initial": c.watch_annihilates_initial,
        "zero_level_dimension": c.zero_level_dimension,
        "order": c.order.value,
        "prerequisite_i": c.prerequisite_i,
        "commutator_norm_order0": c.commutator_norm_order0,
        "commutator_norm_order1": c.commutator_norm_order1,
        "notes": c.notes,
    }
    out = _resolve(args, "out")
    if out:
        _write_json(Path(out), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_effective(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    from .chain import build_chain

    analysis = effective_reports(build_chain(spec))
    rep0, rep1 = analysis.order0, analysis.order1
    payload = {
        "order0": {
            "nonzeros": _matrix_nonzeros(rep0.matrix, tol=1e-10),
            "eta1_common": rep0.eta1_common,
        },
        "order1_times_lambda": {
            "nonzeros": _matrix_nonzeros(rep1.matrix, tol=1e-10),
        },
    }
    out = _resolve(args, "out")
    if out:
        _write_json(Path(out), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    n = _resolve(args, "n", int)
    if n is None:
        raise ValidationError("n: required (chain length)")
    delta0 = _resolve(args, "delta0", float)
    print(_fmt(analytic.lambda_bound(n, delta0)))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    g_list = _parse_float_list(_resolve(args, "g_list"))
    n_list = _parse_int_list(_resolve(args, "n_list"))
    k = _resolve(args, "k", float)
    steps = _resolve(args, "steps", int)
    result = run_sweep(g_list, n_list, k=k, n_steps=steps)

    csv_path, json_path = _out_paths(args, "sweep")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["G", "N", "lambda_inv", "delta"])
        for row in result.rows:
            writer.writerow(
                [_fmt(row.g), row.n_sites, _fmt(row.lambda_inv), _fmt(row.delta)]
            )

    payload = {
        "slope": result.slope,
        "per_g": [
            {"g": g, "mean_delta": m, "flatness": f}
            for g, m, f in zip(result.g_values, result.mean_delta, result.flatness)
        ],
        "rows": len(result.rows),
    }
    _write_json(json_path, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_fluctuate(args: argparse.Namespace) -> int:
    n = _resolve(args, "n", int)
    if n is None:
        raise ValidationError("n: required (chain length)")
    amplitude = _resolve(args, "amplitude", float)
    trials = _resolve(args, "trials", int)
    seed = _resolve(args, "seed", int)
    lambda_inv = _resolve(args, "lambda_inv", float)
    k = _resolve(args, "k", float)
    steps = _resolve(args, "steps", int)
    rows = run_fluctuation_trials(
        n, amplitude, trials, seed, lambda_inv=lambda_inv, k=k, n_steps=steps
    )

    csv_path, json_path = _out_paths(args, "fluctuate")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed_offset", "corner_element", "delta"])
        for row in rows:
            writer.writerow([row.seed_offset, _fmt(row.corner_element), _fmt(row.delta)])

    corners = np.array([row.corner_element for row in rows])
    deltas = np.array([row.delta for row in rows])
    payload = {
        "trials": len(rows),
        "mean_corner_element": float(np.mean(corners)),
        "mean_delta": float(np.mean(deltas)),
    }
    _write_json(json_path, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="zenochain",
        description=(
            "Tight-binding chains with strong interior bonds: exact dynamics, "
            "effective watched-subspace Hamiltonians, and leakage analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="config file of key=value lines")
        p.add_argument("--out", help="output path prefix (default: subcommand name)")

    def add_chain(p: _Parser) -> None:
        p.add_argument("--n", type=int, help="chain length N >= 4")
        p.add_argument("--k", type=float, help="weak coupling k (default 1)")
        p.add_argument(
            "--lambda-inv",
            dest="lambda_inv",
            type=float,
            help="strong/weak coupling ratio (default 20)",
        )
        p.add_argument(
            "--delta-omega",
            dest="delta_omega",
            type=float,
            help="on-site energy shift at site 2 (modified chains)",
        )

    p = sub.add_parser("simulate", help="evolve |1> and write the population trace")
    add_common(p)
    add_chain(p)
    p.add_argument("--t-max", dest="t_max", type=float, help="window length (default: one effective cycle)")
    p.add_argument("--steps", type=int, help="grid steps (default 4000)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="classify the constrained-dynamics order")
    add_common(p)
    add_chain(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("effective", help="print the order-0/1 effective Hamiltonians")
    add_common(p)
    add_chain(p)
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("bound", help="coupling-ratio bound keeping leakage under delta0")
    add_common(p)
    p.add_argument("--n", type=int, help="chain length N (even)")
    p.add_argument("--delta0", type=float, help="leakage standard (default 0.1)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="G-sweep measuring delta and the quadratic fit")
    add_common(p)
    p.add_argument("--g-list", dest="g_list", help="comma-separated G values")
    p.add_argument("--n-list", dest="n_list", help="comma-separated even chain lengths")
    p.add_argument("--k", type=float, help="weak coupling k (default 1)")
    p.add_argument("--steps", type=int, help="grid steps per cell (default 4000)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fluctuate", help="Monte Carlo over fluctuating couplings")
    add_common(p)
    p.add_argument("--n", type=int, help="chain length N (even)")
    p.add_argument("--amplitude", type=float, help="relative coupling noise (default 0.05)")
    p.add_argument("--trials", type=int, help="number of trials (default 100)")
    p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    p.add_argument("--lambda-inv", dest="lambda_inv", type=float, help="coupling ratio (default 20)")
    p.add_argument("--k", type=float, help="weak coupling k (default 1)")
    p.add_argument("--steps", type=int, help="grid steps per trial (default 4000)")
    p.set_defaults(func=cmd_fluctuate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = read_config_file(args.config) if getattr(args, "config", None) else {}
        args._config = config
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
