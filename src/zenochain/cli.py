"""Command-line interface.

Subcommands: simulate, classify, effective, bound, sweep, fluctuate; COMMANDS
lists the flags of each, FLAGS declares each flag once. A config file of key=value
lines (--config) becomes leading flags of the subcommand; command-line flags win.
Exit codes: 0 success, 1 validation error, 2 numerical failure or no memory, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analytic
from .chain import ChainSpec, build_chain
from .dynamics import DEFAULT_N_STEPS
from .errors import NumericalFailureError, ValidationError
from .harness import _classified, effective_reports, run_fluctuation_trials, run_scenario, run_sweep
from .perturbation import EffectiveHamiltonianReport
from .qzd import QzdOrder

FLOAT_FORMAT = "%.12g"
# the largest float64 array: numpy fails with a traceback on one whose byte size overflows intp
_INDEX_MAX = np.iinfo(np.intp).max // 8
# rows per formatted write: one whole-table string would add its own size
# (about 18 MiB for a 94-site default simulate) to the peak memory
WRITE_BLOCK_ROWS = 256
# library fields a ValidationError names -> the flag that sets them
_FLAG_OF_FIELD = {
    "n_sites": "n",
    "n_steps": "steps",
    "fluctuation.rng_seed": "seed",
    "fluctuation.relative_amplitude": "amplitude",
}


def _words(chars: np.ndarray, suffix: bytes = b"") -> np.ndarray:
    """Rows of ASCII codes, each followed by ``suffix``, as uint32 words; then
    the same rows again with their trailing "0" and "." characters as NUL
    (written text drops every NUL)."""
    chars = chars.astype(np.uint8)
    trimmed = chars.copy()
    trailing = np.ones(len(chars), bool)
    for j in reversed(range(chars.shape[1])):
        trailing &= (chars[:, j] == ord("0")) | (chars[:, j] == ord("."))
        trimmed[:, j] *= ~trailing
    rows = np.concatenate([chars, trimmed])
    tail = np.tile(np.frombuffer(suffix, np.uint8), (len(rows), 1))
    return np.hstack([rows, tail]).view(np.uint32).ravel()


# _format_block writes each cell as a record of _RECORD bytes: the separator
# that comes before the cell ("," or, for a row's first cell, "\n"), the
# cell's text and NUL padding. The written rows are the records without their
# NULs. The words the text is built from, each a table indexed by the value it
# spells (X is the decimal exponent); an index plus half the size of _DIGITS,
# _LEAD or _LAST gives the word with its trailing "0"s, and a point left bare,
# as NUL:
# - fixed class, "0.000dddddddddddd": the words _POINT and three _DIGITS,
#   where _POINT[-X] is the 8 bytes ",0.", -X-1 zeros and NULs, and _DIGITS[i]
#   is the 4 digits of i (0000-9999);
# - scientific class, "d.ddddddddddde-XX": the words _LEAD, _DIGITS, _DIGITS,
#   _LAST and _EXP, where _LEAD[i] is ",a.b" and _LAST[i] is "abe-" for the
#   digits ab of i < 100, and _EXP[-X] is "XX" and two NULs.
# Both exponent tables cover every X that _format_block computes (-101 to 0).
# _POW10[k] is 10**k from a correctly rounded decimal literal (pow would add
# its own rounding).
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_ASCII = np.column_stack([np.repeat(np.tile(_DIGIT, 10**j), 10 ** (3 - j)) for j in range(4)])
_DIGITS = _words(_ASCII)
_LEAD = _words(np.column_stack(
    [np.full(100, ord(",")), _ASCII[:100, 2], np.full(100, ord(".")), _ASCII[:100, 3]]
))
_LAST = _words(_ASCII[:100, 2:], b"e-")
_POW10 = np.array([float(f"1e{k}") for k in range(113)])
_POINT = np.array([b",0." + b"0" * (j - 1) for j in range(_POW10.size)], "S8").view(np.uint64)
_EXP = np.array([b"%02d" % j for j in range(_POW10.size)], "S4").view(np.uint32)
_RECORD = 20  # bytes per cell: its separator and the longest FLOAT_FORMAT text (19)
_CELL = np.dtype((np.void, _RECORD))  # one record as one item: row scatters are fast
# the fixed class's words, stored for every cell at once
_FIXED = np.dtype({
    "names": ["point", "g1", "g2", "g3"], "offsets": [0, 8, 12, 16], "itemsize": _RECORD,
    "formats": [np.uint64, np.uint32, np.uint32, np.uint32],
})
_FALLBACK = (",%-" + str(_RECORD - 1) + FLOAT_FORMAT[1:]).encode()
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def _parse_float_list(raw: str, name: str = "g_list") -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{name}: could not parse list {raw!r}") from exc


def _parse_int_list(raw: str) -> list[int]:
    values = []
    tokens = [tok for tok in raw.split(",") if tok.strip()]
    for tok, v in zip(tokens, _parse_float_list(raw, "n_list")):
        if not math.isfinite(v) or v != int(v):
            raise ValidationError(f"n_list: expected integers in list, got {v}")
        # an integer literal is read exactly: its float keeps only 53 bits
        n = int(v) if "." in tok or "e" in tok.lower() else int(tok)
        if n > _INDEX_MAX:
            raise ValidationError(f"n_list: N={v:g}: must be at most {_INDEX_MAX}")
        values.append(n)
    return values


def read_config_file(path: str, known: frozenset[str]) -> dict[str, str]:
    """Parse a config file of key=value lines ('#' starts a comment).

    A key outside ``known``, or one given twice (``lambda-inv`` and
    ``lambda_inv`` are one key), is an error naming the file and line; a
    file that is not UTF-8 is an error naming the file.
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
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
_CONFIG_KEYS = frozenset(FLAGS) - {"config"}
_FLOAT_FLAGS = {"--" + n.replace("_", "-") for n, kw in FLAGS.items() if kw.get("type") is float}


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


def _print(text: str) -> None:
    # each command prints last, after its files are written: a reader that
    # closed stdout early ends the run quietly, and what is left of stdout's
    # buffer goes to devnull instead of failing the flush at exit
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_json(path: Path | str | None, payload: dict) -> None:
    """Print the payload and, given a path, write the same text there."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    _print(text)


def _mantissa_words(m: np.ndarray, places: tuple[int, ...], tables: tuple) -> list[np.ndarray]:
    """The words of the digit groups of the integers m < 1e13, cut below each
    10**p of ``places``: each group's word from its table, trimmed where only
    zeros follow. Float division is exact here: a non-integer m / 10**p is at
    least 10**-p from an integer, and its rounding error is below
    1e13 * 2**-53 / 10**p, so its floor is exact, as are the products and
    differences of integers below 2**53.
    Indices are clipped: a cell outside the class may get any word."""
    words = []
    for p, table in zip(places, tables):
        g = np.floor(m / _POW10[p])
        m = m - g * _POW10[p]
        i = g.astype(np.intp)
        np.add(i, table.size // 2, out=i, where=m == 0)
        words.append(table.take(i, mode="clip"))
    last = tables[-1]
    return words + [last[last.size // 2 :].take(m.astype(np.intp))]


def _format_block(block: np.ndarray) -> bytearray:
    """The CSV rows of a 2-D block, each led by "\\n": exactly ``FLOAT_FORMAT %
    value`` per cell. See ``_write_table`` for the records, the classes of
    cells and the proof of rounding."""
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
    fixed = proven & (exp10 >= -4) & (exp10 < 0)
    sci = proven & (exp10 < -4) & (exp10 >= -99)
    rest = np.flatnonzero(~(fixed | sci))
    sci = np.flatnonzero(sci)

    buf = bytearray(n * _RECORD)
    cells = np.frombuffer(buf, _CELL)
    fields = cells.view(_FIXED)  # every record starts as a fixed-class cell
    fields["point"] = _POINT.take(-exp10)
    fields["g1"], fields["g2"], fields["g3"] = _mantissa_words(m, (8, 4), (_DIGITS,) * 3)
    if sci.size:
        words = _mantissa_words(m[sci], (10, 6, 2), (_LEAD, _DIGITS, _DIGITS, _LAST))
        cells[sci] = np.column_stack(words + [_EXP.take(-exp10[sci])]).view(_CELL).ravel()
    if rest.size:
        text = (_FALLBACK * rest.size % tuple(x[rest].tolist())).translate(_SPACE_TO_NUL)
        cells[rest] = np.frombuffer(text, _CELL)
    cells.view(np.uint8).reshape(block.shape[0], -1)[:, 0] = ord("\n")
    return buf.translate(None, b"\0")


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV: the header row, then one FLOAT_FORMAT row per sample.

    ``columns`` are 1-D columns or 2-D blocks of columns, one row per sample.
    Rows are formatted WRITE_BLOCK_ROWS at a time by ``_format_block``, whose
    bytes equal ``FLOAT_FORMAT % value`` cell for cell. Each cell is a record
    of _RECORD bytes: the separator before it ("\\n" for a row's first cell,
    else ","), its text, NUL padding; the block is its records without the
    NULs. So the header is written without its newline and the table ends
    with one.

    With e0 = floor(log10 x), the 12-digit mantissa m rounds
    s = x * 10**(11 - e0); a carry to 1e12 bumps the exponent to X. The power
    is a correctly rounded literal, so s has two roundings:
    |s - S| <= 2 * 2**-53 * S < 2.3e-4 for the exact S < 1e12 + 1. Where
    |frac(s) - 1/2| > 1e-3, 1e11 <= s (log10 may round up just below a power
    of ten) and the mantissa, carried, is below 1e12, s rounds as S does. Such
    cells are written from digit tables in one of two classes:

    - fixed, 1e-4 <= rounded value < 1: "0.", -X-1 zeros and m, trailing zeros
      trimmed. Its words are stored into every record, with no index;
    - scientific, 1e-99 <= rounded value < 1e-4: "d.ddddddddddde-XX", trailing
      zeros of m, and a point left bare, trimmed. Its records are patched over
      the fixed words by index.

    Every other cell (zero, negative, >= 1, near a rounding tie, 3-digit
    exponent, not finite) takes one batched Python ``,%-19.12g`` per block.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode())
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = np.column_stack([c[start : start + WRITE_BLOCK_ROWS] for c in columns])
            fh.write(_format_block(block))
        fh.write(b"\n")


def _matrix_nonzeros(rep: EffectiveHamiltonianReport) -> list[list]:
    """Entries [i, j, value] (1-based, upper triangle) of the report's
    site-basis matrix M = V0 B V0^T above its round-off floor, |value| > cut
    for cut = ``rep.round_off``. As |M_ij| <= max|B| ||V0_i||_1 ||V0_j||_1 and
    ||V0_j||_1 <= d0, only the rows R with d0 max|B| ||V0_i||_1 > cut / 2
    (2 covers rounding) are formed, as V0[R] B V0[R]^T; absolute sums, unlike
    squares, do not underflow at tiny k.
    """
    v0, block, cut = rep.basis, rep.block, rep.round_off
    bound = block.shape[0] * np.max(np.abs(block), initial=0.0) * np.abs(v0).sum(axis=1)
    rows = np.flatnonzero(bound > 0.5 * cut)
    matrix = v0[rows] @ block @ v0[rows].T
    i, j = np.nonzero(np.triu(np.abs(matrix) > cut))  # row-major
    i, j, values = rows[i] + 1, rows[j] + 1, matrix[i, j]
    return [[a, b, v] for a, b, v in zip(i.tolist(), j.tolist(), values.tolist())]


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    result = run_scenario(spec, args.steps, args.t_max)

    csv_path, json_path = _out_paths(args, "simulate")
    trace = result.trace
    header = ["t"] + [f"p_{i + 1}" for i in range(spec.n_sites)] + ["leakage"]
    columns = [trace.grid.times, trace.populations, trace.leakage]
    if trace.mid_overlap is not None:
        header.append("mid_overlap")
        columns.append(trace.mid_overlap)
    _write_table(csv_path, header, columns)

    order = result.classification.order
    # the report of the classified order; no other order lists an entry
    rep = {QzdOrder.ZEROTH: result.order0, QzdOrder.FIRST: result.order1}[order]
    summary = {
        "delta": result.leakage.delta,
        "attained_at": result.leakage.attained_at,
        "classification_order": order.value,
        "effective_matrix_nonzeros": _matrix_nonzeros(rep),
    }
    _emit_json(json_path, summary)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    spec = _chain_spec(args)
    _, c = _classified(build_chain(spec))
    _emit_json(args.out, dataclasses.asdict(c) | {"order": c.order.value})
    return 0


def cmd_effective(args: argparse.Namespace) -> int:
    analysis = effective_reports(build_chain(_chain_spec(args)))
    rep0, rep1 = analysis.order0, analysis.order1
    payload = {
        "order0": {"nonzeros": _matrix_nonzeros(rep0), "eta1_common": rep0.eta1_common},
        "order1_times_lambda": {"nonzeros": _matrix_nonzeros(rep1)},
    }
    _emit_json(args.out, payload)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    _print(FLOAT_FORMAT % analytic.lambda_bound(_n_sites(args), args.delta0))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    result = run_sweep(args.g_list, args.n_list, n_steps=args.steps)

    csv_path, json_path = _out_paths(args, "sweep")
    g, n = np.meshgrid(result.g_values, result.n_values, indexing="ij")
    columns = [g.ravel(), n.ravel(), result.lambda_inv.ravel(), result.delta.ravel()]
    _write_table(csv_path, ["G", "N", "lambda_inv", "delta"], columns)

    payload = {
        "slope": result.slope,
        "per_g": [
            {"g": g, "mean_delta": m, "flatness": f}
            for g, m, f in zip(result.g_values, result.mean_delta, result.flatness)
        ],
        "rows": result.delta.size,
    }
    _emit_json(json_path, payload)
    return 0


def cmd_fluctuate(args: argparse.Namespace) -> int:
    corners, deltas = run_fluctuation_trials(
        _n_sites(args), args.amplitude, args.trials, args.seed,
        lambda_inv=args.lambda_inv, k=args.k, n_steps=args.steps,
    )

    csv_path, json_path = _out_paths(args, "fluctuate")
    with np.errstate(over="ignore"):
        mean_corner = float(np.mean(corners))
    if not math.isfinite(mean_corner):
        raise ValidationError(f"k: the mean corner element over k = {args.k:g} overflows")
    offsets = np.arange(args.trials)
    _write_table(csv_path, ["seed_offset", "corner_element", "delta"], [offsets, corners, deltas])

    payload = {
        "trials": args.trials,
        "mean_corner_element": mean_corner,
        "mean_delta": float(np.mean(deltas)),
    }
    _emit_json(json_path, payload)
    return 0


_CHAIN = ("n", "k", "lambda_inv", "delta_omega")

# subcommand -> (function, help, flags besides --config)
COMMANDS = {
    "simulate": (
        cmd_simulate, "evolve |1> and write the population trace",
        ("out", *_CHAIN, "t_max", "steps"),
    ),
    "classify": (cmd_classify, "classify the constrained-dynamics order", ("out", *_CHAIN)),
    "effective": (cmd_effective, "print the order-0/1 effective Hamiltonians", ("out", *_CHAIN)),
    "bound": (cmd_bound, "coupling-ratio bound keeping leakage under delta0", ("n", "delta0")),
    "sweep": (
        cmd_sweep, "G-sweep measuring delta and the quadratic fit",
        ("out", "g_list", "n_list", "steps"),
    ),
    "fluctuate": (
        cmd_fluctuate, "Monte Carlo over fluctuating couplings",
        ("out", "n", "amplitude", "trials", "seed", "lambda_inv", "k", "steps"),
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
        # flags are spelled in full: a prefix such as --delta would escape
        # the float-value join of _join_float_values
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in ("config", *names):
            p.add_argument("--" + name.replace("_", "-"), **FLAGS[name])
        p.set_defaults(func=func)
    return parser


# the one parser of the process: the first main call builds it (the import
# does not), and nothing changes it afterwards
_parser = functools.cache(build_parser)


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each float flag and the number after it joined as --flag=value;
    argparse takes a negative number with an exponent, -1.5e3, for an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_FLAGS:
            try:
                float(token)
                out[-1] += "=" + token
                continue
            except ValueError:
                pass
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _join_float_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        if args.config:
            # each line for a flag of the subcommand (an attribute of args)
            # becomes one --flag=value word right after the subcommand word,
            # argv[0]; argparse keeps the last value, so the command line's
            # own flags override the file. Lines for other subcommands' flags
            # are dropped. The words follow the flags' order, not the file's,
            # so of two bad values the first flag's is reported.
            config = read_config_file(args.config, _CONFIG_KEYS)
            lead = [f"--{k.replace('_', '-')}={config[k]}" for k in vars(args) if k in config]
            args = _parser().parse_args(argv[:1] + lead + argv[1:])
        for name in ("n", "steps", "trials"):
            if (getattr(args, name, None) or 0) > _INDEX_MAX:
                raise ValidationError(f"{name}: must be at most {_INDEX_MAX}")
        return args.func(args)
    except ValidationError as exc:
        field, sep, rest = str(exc).partition(": ")
        print(f"error: {_FLAG_OF_FIELD.get(field, field)}{sep}{rest}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
