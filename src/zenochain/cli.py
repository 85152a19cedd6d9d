"""Command-line interface.

Subcommands: simulate, classify, effective, bound, sweep, fluctuate; COMMANDS
lists the flags of each, FLAGS declares each flag once. A config file of
key=value lines (--config) sets defaults; command-line flags take precedence.
Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analytic
from .chain import ChainSpec
from .dynamics import DEFAULT_N_STEPS, TimeGrid, site_one
from .errors import NumericalFailureError, ValidationError
from .harness import (
    dominant_effective_matrix,
    run_fluctuation_trials,
    run_scenario,
    run_sweep,
    effective_reports,
)
from .qzd import QzdOrder

FLOAT_FORMAT = "%.12g"
# rows per formatted write: one whole-table string would add its own size
# (about 18 MiB for a 94-site default simulate) to the peak memory
WRITE_BLOCK_ROWS = 256


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 ASCII codes as uint32 words, then the same rows again with
    their trailing "0" characters as NUL (written text drops every NUL)."""
    chars = chars.astype(np.uint8)
    trimmed = chars.copy()
    trailing = np.ones(len(chars), bool)
    for j in (3, 2, 1, 0):
        trailing &= chars[:, j] == ord("0")
        trimmed[:, j] *= ~trailing
    return np.concatenate([chars, trimmed]).view(np.uint32).ravel()


# The words _format_block writes its text from, 4 characters each: _DIGITS[i]
# is the digits of i (0000-9999), _HEAD[i] is "a.bc" and _TAIL[i] is "ae-b"
# for the digits abc of i < 1000, _ONES[i] is the digit i; an index plus half
# the table's size gives the trimmed word. _POW10[k] is 10**k from a correctly
# rounded decimal literal (pow would add its own rounding); _INT_POW10[k] is
# the integer 10**k for the fixed class's shifts.
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_ASCII = np.column_stack([np.repeat(np.tile(_DIGIT, 10**j), 10 ** (3 - j)) for j in range(4)])
_DIGITS = _words(_ASCII)
_HEAD = _words(np.column_stack([_ASCII[:1000, 1], np.full(1000, ord(".")), _ASCII[:1000, 2:]]))
_TAIL = _words(np.column_stack(
    [_ASCII[:1000, 1], np.full((1000, 2), [ord("e"), ord("-")]), _ASCII[:1000, 2]]
))
_ONES = _words(np.column_stack([_DIGIT, np.zeros((10, 3), np.uint8)]))
_POW10 = np.array([float(f"1e{k}") for k in range(113)])
_INT_POW10 = 10 ** np.arange(5, dtype=np.int64)
_RECORD = 20  # bytes per cell: the longest FLOAT_FORMAT text (19) and its separator
_CELL = np.dtype((np.void, _RECORD))  # one record as one item: row scatters are fast
_FALLBACK = ("%-" + str(_RECORD) + FLOAT_FORMAT[1:]).encode()
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    # subcommand -> its parser, on the top-level parser (set by build_parser)
    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _parse_float_list(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"could not parse list {raw!r}") from exc


def _parse_int_list(raw: str) -> list[int]:
    values = _parse_float_list(raw)
    for v in values:
        if not math.isfinite(v) or v != int(v):
            raise ValidationError(f"expected integers in list, got {v}")
    return [int(v) for v in values]


def read_config_file(path: str, known: frozenset[str]) -> dict[str, str]:
    """Parse a config file of key=value lines ('#' starts a comment).

    A key outside ``known``, or one given twice (``lambda-inv`` and
    ``lambda_inv`` are one key), is an error naming the file and line.
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise ValidationError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        values[key] = value.strip()
    return values


# flag destination -> add_argument keywords; the keys are also the config keys
FLAGS: dict[str, dict] = {
    "config": dict(help="config file of key=value lines"),
    "out": dict(help="simulate, sweep, fluctuate: path prefix of PREFIX.csv and PREFIX.json "
                "(default: subcommand name); classify, effective: the JSON file (none without it)"),
    "n": dict(type=int, help="chain length N >= 4 (even for bound and fluctuate)"),
    "k": dict(type=float, default=1.0, help="energy unit: weak coupling k (default %(default)s)"),
    "lambda_inv": dict(type=float, default=20.0, help="coupling ratio (default %(default)s)"),
    "delta_omega": dict(type=float, help="on-site energy shift at site 2 (modified chains)"),
    "t_max": dict(type=float, help="window length (default: one effective cycle)"),
    "steps": dict(type=int, default=DEFAULT_N_STEPS, help="grid steps (default %(default)s)"),
    "delta0": dict(type=float, default=0.1, help="leakage standard (default %(default)s)"),
    "g_list": dict(
        type=_parse_float_list, default="0.05,0.1,0.15,0.2",
        help="comma-separated G values (default %(default)s)",
    ),
    "n_list": dict(
        type=_parse_int_list, default="4,6,8,10,12,14,16,18,20,22,24,26,28,30",
        help="comma-separated even chain lengths (default %(default)s)",
    ),
    "amplitude": dict(type=float, default=0.05, help="coupling noise (default %(default)s)"),
    "trials": dict(type=int, default=100, help="number of trials (default %(default)s)"),
    "seed": dict(type=int, default=0, help="base RNG seed (default %(default)s)"),
}


def _n_sites(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ValidationError("n: required (chain length)")
    return args.n


def _chain_spec(args: argparse.Namespace) -> ChainSpec:
    return ChainSpec(
        n_sites=_n_sites(args), lambda_inv=args.lambda_inv, k=args.k, delta_omega=args.delta_omega
    )


def _out_paths(args: argparse.Namespace, default_prefix: str) -> tuple[Path, Path]:
    prefix = str(Path(args.out or default_prefix)).removesuffix(".csv")
    return Path(prefix + ".csv"), Path(prefix + ".json")


def _emit_json(path: Path | str | None, payload: dict) -> None:
    """Print the payload and, given a path, write the same text there."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    print(text)


def _digit_groups(q: np.ndarray, widths: tuple[int, ...]) -> list[np.ndarray]:
    """Groups of ``widths`` decimal digits of q from the right, then the rest."""
    groups = []
    for w in widths:
        rest = q // 10**w
        groups.append(q - rest * 10**w)
        q = rest
    return groups + [q]


def _format_block(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D block: exactly ``FLOAT_FORMAT % value`` per cell.

    See ``_write_table`` for the classes of cells and the proof of rounding.
    Each cell gets a record of _RECORD bytes: its text, NUL padding and its
    separator in the last byte; the rows are the records without the NULs.
    """
    x = block.ravel()
    n = x.size
    cand = (x >= 1e-100) & (x < 1.0)  # both classes lie in this range
    xc = np.where(cand, x, 0.5)
    e0 = np.floor(np.log10(xc)).astype(np.intp)
    s = xc * _POW10[11 - e0]
    m = np.rint(s)
    carry = m == 1e12
    m[carry] = 1e11
    exp10 = e0 + carry  # the decimal exponent of the rounded value
    proven = cand & (np.abs(s - np.floor(s) - 0.5) > 1e-3) & (s >= 1e11) & (m < 1e12)
    fixed = np.flatnonzero(proven & (exp10 >= -4) & (exp10 < 0))
    sci = np.flatnonzero(proven & (exp10 < -4) & (exp10 >= -99))

    records = np.empty(n, _CELL)
    if fixed.size:
        # "0." and the 15 digits of m * 10**(exp10 + 4), trailing zeros trimmed
        q = m[fixed].astype(np.int64) * _INT_POW10.take(exp10[fixed] + 4)
        f, *groups = _digit_groups(q, (1, 4, 4, 4))
        words = [_DIGITS.take(f * 1000 + _DIGITS.size // 2)]
        trim = f == 0  # only zeros follow the group
        for g, table in zip(groups, (_DIGITS, _DIGITS, _DIGITS, _HEAD)):
            words.append(table.take(g + trim * (table.size // 2)))
            trim &= g == 0
        records[fixed] = np.column_stack(words[::-1]).view(_CELL).ravel()
    if sci.size:
        # "d.ddddddddddde-XX"; a last digit 0 would be trimmed and falls back
        last, g3, g2, g1 = _digit_groups(m[sci].astype(np.int64), (1, 4, 4))
        e = -exp10[sci]
        keep = last != 0
        sci = sci[keep]
        records[sci] = np.column_stack([
            _HEAD.take(g1), _DIGITS.take(g2), _DIGITS.take(g3),
            _TAIL.take(last * 100 + e), _ONES.take(e % 10),
        ]).view(_CELL).ravel()[keep]
    rest = np.ones(n, bool)
    rest[fixed] = rest[sci] = False
    rest = np.flatnonzero(rest)
    if rest.size:
        text = (_FALLBACK * rest.size % tuple(x[rest].tolist())).translate(_SPACE_TO_NUL)
        records[rest] = np.frombuffer(text, _CELL)
    chars = records.view(np.uint8).reshape(n, _RECORD)
    chars[:, -1] = ord(",")
    chars.reshape(*block.shape, _RECORD)[:, -1, -1] = ord("\n")
    return records.tobytes().translate(None, b"\0")


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV: the header row, then one FLOAT_FORMAT row per sample.

    ``columns`` are 1-D columns or 2-D blocks of columns, one row per sample.
    Rows are formatted WRITE_BLOCK_ROWS at a time by ``_format_block``, whose
    bytes equal ``FLOAT_FORMAT % value`` cell for cell. With
    e0 = floor(log10 x), the 12-digit mantissa m rounds s = x * 10**(11 - e0);
    a carry to 1e12 bumps the exponent. The power is a correctly rounded
    literal, so s has two roundings: |s - S| <= 2 * 2**-53 * S < 2.3e-4 for the
    exact S < 1e12 + 1. Where |frac(s) - 1/2| > 1e-3, 1e11 <= s (log10 may
    round up just below a power of ten) and the mantissa, carried, is below
    1e12, s rounds as S does. Such cells are written from digit tables in
    one of two classes:

    - 1e-4 <= rounded value < 1: "0." and the 15 digits of m * 10**(X + 4)
      (X the rounded exponent), trailing zeros trimmed;
    - 1e-99 <= rounded value < 1e-4 with a nonzero last digit:
      "d.ddddddddddde-XX".

    Every other cell (zero, negative, >= 1, near a rounding tie, trimmed or
    3-digit-exponent scientific, not finite) takes one batched Python
    ``%-20.12g`` per block.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = np.column_stack([c[start : start + WRITE_BLOCK_ROWS] for c in columns])
            fh.write(_format_block(block))


def _matrix_nonzeros(matrix: np.ndarray, cut: float) -> list[list]:
    """Entries [i, j, value] (1-based, upper triangle) with |value| > cut."""
    i, j = np.triu_indices(matrix.shape[0])
    values = matrix[i, j]
    keep = np.abs(values) > cut
    return [
        [a, b, v]
        for a, b, v in zip((i[keep] + 1).tolist(), (j[keep] + 1).tolist(), values[keep].tolist())
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    grid = TimeGrid(args.t_max, args.steps) if args.t_max is not None else None
    result = run_scenario(spec, grid=grid, n_steps=args.steps)

    csv_path, json_path = _out_paths(args, "simulate")
    trace = result.trace
    header = ["t"] + [f"p_{i + 1}" for i in range(spec.n_sites)] + ["leakage"]
    columns = [trace.grid.times, trace.populations, trace.leakage]
    if trace.mid_overlap is not None:
        header.append("mid_overlap")
        columns.append(trace.mid_overlap)
    _write_table(csv_path, header, columns)

    order = result.classification.order
    # relative to the weak coupling k, times lam for the order-1 matrix
    cut = 1e-12 * spec.k * (spec.lam if order is QzdOrder.FIRST else 1.0)
    summary = {
        "delta": result.leakage.delta,
        "attained_at": result.leakage.attained_at,
        "classification_order": order.value,
        "effective_matrix_nonzeros": _matrix_nonzeros(dominant_effective_matrix(result), cut),
    }
    _emit_json(json_path, summary)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    from .chain import build_chain

    c = effective_reports(build_chain(spec)).classify(site_one(spec.n_sites))
    _emit_json(args.out, dataclasses.asdict(c) | {"order": c.order.value})
    return 0


def cmd_effective(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    from .chain import build_chain

    analysis = effective_reports(build_chain(spec))
    rep0, rep1 = analysis.order0, analysis.order1
    cut = 1e-10 * spec.k  # relative to the weak coupling k, times lam at order 1
    payload = {
        "order0": {
            "nonzeros": _matrix_nonzeros(rep0.matrix, cut),
            "eta1_common": rep0.eta1_common,
        },
        "order1_times_lambda": {
            "nonzeros": _matrix_nonzeros(rep1.matrix, cut * spec.lam),
        },
    }
    _emit_json(args.out, payload)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    print(FLOAT_FORMAT % analytic.lambda_bound(_n_sites(args), args.delta0))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    result = run_sweep(args.g_list, args.n_list, n_steps=args.steps)

    csv_path, json_path = _out_paths(args, "sweep")
    _write_table(
        csv_path, ["G", "N", "lambda_inv", "delta"],
        [np.array([(r.g, r.n_sites, r.lambda_inv, r.delta) for r in result.rows])],
    )

    payload = {
        "slope": result.slope,
        "per_g": [
            {"g": g, "mean_delta": m, "flatness": f}
            for g, m, f in zip(result.g_values, result.mean_delta, result.flatness)
        ],
        "rows": len(result.rows),
    }
    _emit_json(json_path, payload)
    return 0


def cmd_fluctuate(args: argparse.Namespace) -> int:
    rows = run_fluctuation_trials(
        _n_sites(args), args.amplitude, args.trials, args.seed,
        lambda_inv=args.lambda_inv, k=args.k, n_steps=args.steps,
    )

    csv_path, json_path = _out_paths(args, "fluctuate")
    offsets, corners, deltas = np.array(
        [(r.seed_offset, r.corner_element, r.delta) for r in rows]
    ).T
    with np.errstate(over="ignore"):
        mean_corner = float(np.mean(corners))
    if not math.isfinite(mean_corner):
        raise ValidationError(f"k: the mean corner element over k = {args.k:g} overflows")
    _write_table(csv_path, ["seed_offset", "corner_element", "delta"], [offsets, corners, deltas])

    payload = {
        "trials": len(rows),
        "mean_corner_element": mean_corner,
        "mean_delta": float(np.mean(deltas)),
    }
    _emit_json(json_path, payload)
    return 0


_CHAIN = ("n", "k", "lambda_inv", "delta_omega")

# subcommand -> (function, help, flags besides --config and --out)
COMMANDS = {
    "simulate": (
        cmd_simulate, "evolve |1> and write the population trace", (*_CHAIN, "t_max", "steps")
    ),
    "classify": (cmd_classify, "classify the constrained-dynamics order", _CHAIN),
    "effective": (cmd_effective, "print the order-0/1 effective Hamiltonians", _CHAIN),
    "bound": (cmd_bound, "coupling-ratio bound keeping leakage under delta0", ("n", "delta0")),
    "sweep": (
        cmd_sweep, "G-sweep measuring delta and the quadratic fit",
        ("g_list", "n_list", "steps"),
    ),
    "fluctuate": (
        cmd_fluctuate, "Monte Carlo over fluctuating couplings",
        ("n", "amplitude", "trials", "seed", "lambda_inv", "k", "steps"),
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="zenochain",
        description=(
            "Tight-binding chains with strong interior bonds: exact dynamics, "
            "effective watched-subspace Hamiltonians, and leakage analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in ("config", "out", *names):
            p.add_argument("--" + name.replace("_", "-"), **FLAGS[name])
        p.set_defaults(func=func)
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults: argparse casts
            # them and lets the command-line flags override them
            config = read_config_file(args.config, frozenset(FLAGS) - {"config"})
            parser.commands[args.command].set_defaults(**config)
            args = parser.parse_args(argv)
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
