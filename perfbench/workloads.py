"""The benchmark's seeded workloads.

A workload is a list of operations. One operation is one call into a public
entry point (``harness.run_scenario`` or ``cli.main``) plus a check of what
it returned. Entry points are looked up through their module at call time, so a
traced pass reaches the wrapped functions.

Chain sizes come from fixed ladders plus a small seeded jitter: the seed
changes the chains (size, class, coupling ratio, shift) but hardly the total
work, so runs with different seeds measure the same load.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from zenochain import analytic, cli, harness
from zenochain.chain import ChainSpec
from zenochain.dynamics import DEFAULT_N_STEPS

from referee import (
    CLASSES,
    EXPECTED_ORDER,
    Referee,
    check_closed_form,
    chain_class,
    require,
)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # bytes the CLI wrote to files and stdout, for cli.output_bytes
    output_bytes: Callable[[object], int] | None = None


def _chain(cls: str, n: int, rng: np.random.Generator) -> ChainSpec:
    n += n % 2 if cls == "even" else 1 - n % 2
    lambda_inv = round(float(rng.uniform(10.0, 40.0)), 3)
    delta_omega = round(float(rng.uniform(5.0, 50.0)), 3) if cls == "modified" else None
    return ChainSpec(n, lambda_inv, delta_omega=delta_omega)


def _chains(rng: np.random.Generator, ladder: tuple[int, ...], jitter: int) -> list[ChainSpec]:
    """One chain per ladder rung; every class appears once there are three."""
    pool = list(CLASSES) + [str(c) for c in rng.choice(CLASSES, max(0, len(ladder) - 3))]
    classes = rng.permutation(pool)[: len(ladder)]
    sizes = np.array(ladder) + rng.integers(0, jitter + 1, len(ladder))
    return [_chain(str(c), int(n), rng) for c, n in zip(classes, sizes)]


# ---------------------------------------------------------------- scenarios


def _scenario_op(spec: ChainSpec, referee: Referee) -> Op:
    def check(result) -> None:
        order = result.classification.order.value
        want = EXPECTED_ORDER[chain_class(spec)]
        require(order == want, f"classified {order}, expected {want}")
        check_closed_form(spec, {"order0": result.order0.matrix, "order1": result.order1.matrix})
        referee.peak(spec, DEFAULT_N_STEPS).check(result.leakage.delta)

    return Op(f"run_scenario {spec}", lambda: harness.run_scenario(spec), check)


def scenario_large(seed: int, tiny: bool, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    # the middle three rungs are close so op_p50_ms and op_tail_ms, which fall
    # among them, are order statistics of many similar operations
    ladder = (4, 6, 8) if tiny else (150, 210, 220, 230, 290)
    referee = Referee()
    return [_scenario_op(spec, referee) for spec in _chains(rng, ladder, 4)]


# ---------------------------------------------------------------- CLI


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    files: tuple[Path, ...]

    @property
    def nbytes(self) -> int:
        return len(self.stdout.encode()) + sum(f.stat().st_size for f in self.files)


def _cli_op(label: str, argv: list[str], files: tuple[Path, ...], check) -> Op:
    def run() -> CliRun:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return CliRun(code, out.getvalue(), files)

    def checked(res: CliRun) -> None:
        require(res.code == 0, f"exit code {res.code}")
        check(res)

    return Op(label, run, checked, lambda res: res.nbytes)


def _chain_argv(spec: ChainSpec) -> list[str]:
    argv = ["--n", str(spec.n_sites), "--lambda-inv", repr(spec.lambda_inv)]
    if spec.delta_omega is not None:
        argv += ["--delta-omega", repr(spec.delta_omega)]
    return argv


def _dense(nonzeros: list, n: int) -> np.ndarray:
    m = np.zeros((n, n))
    for i, j, v in nonzeros:
        m[i - 1, j - 1] = m[j - 1, i - 1] = v
    return m


def _csv_max_leakage(path: Path, n_sites: int) -> float:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("leakage")
    require(col == n_sites + 1, f"leakage is column {col}, expected {n_sites + 1}")
    return max(float(line.split(",")[col]) for line in lines[1:])


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate_ops(spec: ChainSpec, steps: int, workdir: Path, tag: str, referee: Referee) -> list[Op]:
    """The same simulate config twice; the second must rewrite identical bytes."""
    cls = chain_class(spec)
    prefixes = [workdir / f"{tag}a", workdir / f"{tag}b"]

    def check_first(res: CliRun) -> None:
        csv_path, json_path = res.files
        summary = json.loads(json_path.read_text())
        want = EXPECTED_ORDER[cls]
        got = summary["classification_order"]
        require(got == want, f"classified {got}, expected {want}")
        report = "order0" if cls == "odd" else "order1"
        check_closed_form(spec, {report: _dense(summary["effective_matrix_nonzeros"], spec.n_sites)})
        peak = referee.peak(spec, steps)
        peak.check(summary["delta"])
        # the CSV holds the grid samples: its largest leakage is the sampled
        # peak (12 significant digits) and never exceeds the reported delta
        csv_max = _csv_max_leakage(csv_path, spec.n_sites)
        require(
            abs(csv_max - peak.sampled) <= 1e-11 * peak.sampled + 1e-15,
            f"CSV peak {csv_max!r} != sampled peak {peak.sampled!r}",
        )
        require(
            csv_max <= summary["delta"] * (1.0 + 1e-11) + 1e-15,
            f"CSV peak {csv_max!r} above delta {summary['delta']!r}",
        )

    def check_second(res: CliRun) -> None:
        first = (prefixes[0].with_suffix(".csv"), prefixes[0].with_suffix(".json"))
        for mine, theirs in zip(res.files, first):
            require(_digest(mine) == _digest(theirs), f"{mine.name} differs from {theirs.name}")

    ops = []
    for prefix, check in zip(prefixes, (check_first, check_second)):
        argv = ["simulate", *_chain_argv(spec), "--steps", str(steps), "--out", str(prefix)]
        files = (prefix.with_suffix(".csv"), prefix.with_suffix(".json"))
        ops.append(_cli_op(f"zenochain {' '.join(argv[:-2])}", argv, files, check))
    return ops


def _classify_op(spec: ChainSpec) -> Op:
    def check(res: CliRun) -> None:
        got, want = json.loads(res.stdout)["order"], EXPECTED_ORDER[chain_class(spec)]
        require(got == want, f"classified {got}, expected {want}")

    argv = ["classify", *_chain_argv(spec)]
    return _cli_op(f"zenochain {' '.join(argv)}", argv, (), check)


def _effective_op(spec: ChainSpec) -> Op:
    def check(res: CliRun) -> None:
        payload = json.loads(res.stdout)
        n = spec.n_sites
        check_closed_form(spec, {
            "order0": _dense(payload["order0"]["nonzeros"], n),
            "order1": _dense(payload["order1_times_lambda"]["nonzeros"], n),
        })

    argv = ["effective", *_chain_argv(spec)]
    return _cli_op(f"zenochain {' '.join(argv)}", argv, (), check)


def _bound_op(n: int, delta0: float) -> Op:
    def check(res: CliRun) -> None:
        got, want = float(res.stdout), analytic.lambda_bound(n, delta0)
        require(abs(got - want) <= 1e-11 * want, f"bound {got!r} != {want!r}")

    argv = ["bound", "--n", str(n), "--delta0", repr(delta0)]
    return _cli_op(f"zenochain {' '.join(argv)}", argv, (), check)


def cli_session(seed: int, tiny: bool, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    referee = Referee()
    if tiny:
        sims, spectral, steps = (4, 5, 6), (6, 8), 64
    else:
        sims, spectral, steps = (40, 67, 94), (150, 240), DEFAULT_N_STEPS
    # op_p50_ms falls among the smallest simulate config, whose cost grows
    # with N, so its sizes get the least jitter
    units = [
        _simulate_ops(spec, steps, workdir, f"sim{i}", referee)
        for i, spec in enumerate(_chains(rng, sims, 2))
    ]
    units += [[_classify_op(spec)] for spec in _chains(rng, spectral, 6)]
    units += [[_effective_op(spec)] for spec in _chains(rng, spectral, 6)]
    for _ in range(2):
        n = 2 * int(rng.integers(2, 201))
        units.append([_bound_op(n, round(float(rng.uniform(0.01, 0.19)), 4))])
    return [op for i in rng.permutation(len(units)) for op in units[i]]


GENERATORS = {
    "scenario_large": scenario_large,
    "cli_session": cli_session,
}


def generate(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """The operations of one pass of workload ``name``; same seed, same ops."""
    return GENERATORS[name](seed, tiny, workdir)
