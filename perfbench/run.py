"""zenochain benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload scenario_large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Workloads and metrics are declared in BENCHMARK.json at the repository root.
A run generates the workload's operations from --seed, warms up on a tiny
copy, then runs the operations in a closed loop in this one process, for as
many passes as fill --seconds at the workload's nominal pass time (at least
MIN_OPS operations). Every output is checked; an operation that raises or
fails a check counts as failed.

Times are scaled to the host's pace. On a shared host a core runs about 1.4x
slower for seconds at a time while another tenant loads it, and the share of
slow time drifts over minutes: over 15 runs of the same code the median time
of a fixed computation spread by 27% (quartile distance over median), which
moved every timing with it. So after every pass and every set-up probe the
run times pace.sample(), a fixed computation unrelated to zenochain, and
multiplies each timing by PACE_S / (median of those samples): seconds at the
pace of the first benchmarked host. A slower program still reads slower by
the same factor. The unscaled timings are in the detail line.

--trace 0 reports the end-to-end metrics: setup_s, the median wall time of
fresh interpreters running probe.py between passes; wall_s, the sum over
operations of each one's median latency across passes; op_p50_ms and
op_tail_ms over all operation latencies; peak_rss_mb of this process, which
runs nothing else.
--trace 1 alternates untraced and traced passes (at least two of each),
reports the per-layer metrics of the traced passes (unscaled) and the tracing
overhead, fails the run when the exact per-layer counts differ between
traced passes, and writes the spans to .perfbench/ when the run ends.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. The line before it, "detail {...}", holds the environment, the
percentile behind op_tail_ms, the failed-op ratio, the pace scale and,
untraced, every operation's unscaled latency in every pass.

--smoke runs every workload at a tiny size in both modes and checks that
each metric named in BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
# op_tail_ms is the latency at the highest percentile with at least ten
# samples beyond it; with 21 operations that percentile is at least the median.
MIN_OPS = 21
# Median of pace.sample() over 15 runs on the first benchmarked host
# (2-core x86_64, Python 3.11.7, numpy 2.4.6).
PACE_S = 0.016
# Wall time of one pass at the first benchmarked commit (2-core x86_64 host).
# A run makes --seconds / PASS_SECONDS passes whatever speed it measures, so
# every run of a workload takes the same samples and op_tail_ms keeps one
# percentile; a time-bounded loop would shift it with the machine's speed.
PASS_SECONDS = {"scenario_large": 8.0, "cli_session": 4.0}
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(ops, tally: Tally, tracer=None) -> list[float]:
    """Run and check each operation once; return their latencies."""
    from referee import CheckFailed

    latencies = []
    for op in ops:
        out = error = None
        if tracer is not None:
            tracer.op += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        latencies.append(elapsed)
        tally.latencies.append(elapsed)
        if error is None:
            try:
                op.check(out)
            except CheckFailed as exc:
                error = str(exc)
            except Exception:
                error = traceback.format_exc()
        if error is None and tracer is not None and op.output_bytes is not None:
            tracer.output_bytes += op.output_bytes(out)
        out = None  # release the result before the next operation runs
        if error is not None:
            tally.failed += 1
            print(f"perfbench: FAILED {op.label}: {error}", file=sys.stderr)
    return latencies


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with ten samples beyond it, that
    percentile, and the number of samples beyond it."""
    xs = sorted(latencies)
    rank = max(len(xs) - 11, 0)
    return xs[rank], 100.0 * (rank + 1) / len(xs), len(xs) - 1 - rank


def time_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing zenochain and generating."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    start = time.perf_counter()
    # no timeout: with one, the wait polls every 50 ms and quantizes the time
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=bootstrap.ROOT)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(show_config) -> str:
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy.show_config),
        "openblas_scipy": blas_version(scipy.show_config),
        "nproc": bootstrap.nproc(),
        **bootstrap.THREAD_ENV,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Measure one workload; return the result object and the detail dict."""
    import pace
    import spans
    from workloads import generate

    bootstrap.WORK.mkdir(exist_ok=True)
    tally, warm = Tally(), Tally()
    detail: dict = {"workload": name, "seed": seed, "trace": int(trace), "tiny": tiny}
    with tempfile.TemporaryDirectory(dir=bootstrap.WORK, prefix=f"{name}-") as tmp:
        ops = generate(name, seed, Path(tmp), tiny)
        (Path(tmp) / "warm").mkdir()
        run_pass(generate(name, seed, Path(tmp) / "warm", tiny=True), warm)
        passes = max(-(-MIN_OPS // len(ops)), round(seconds / PASS_SECONDS[name]))
        detail["ops_per_pass"] = len(ops)
        start = time.perf_counter()
        if not trace:
            # set-up probes run between passes, so they sample the machine's
            # speed at different times rather than in one burst
            untraced_lat, setup, paces = [], [], []
            probes = 1 if tiny else SETUP_PROBES
            for i in range(max(passes, probes)):
                if i < passes:
                    untraced_lat.append(run_pass(ops, tally))
                    paces.append(pace.sample())
                if i < probes:
                    setup.append(time_probe(name, seed))
                    paces.append(pace.sample())
        else:
            untraced_lat, traced_lat, tracers = [], [], []
            for _ in range(max(2, passes // 2)):
                untraced_lat.append(run_pass(ops, tally))
                tracer = spans.Tracer()
                with tracer.installed():
                    traced_lat.append(run_pass(ops, tally, tracer))
                tracers.append(tracer)
        detail["seconds_measured"] = time.perf_counter() - start

    detail["passes"] = len(untraced_lat)
    correct = tally.failed == 0 and warm.failed == 0
    if not trace:
        scale = PACE_S / statistics.median(paces)
        p_tail = tail(tally.latencies)
        values = {
            "setup_s": scale * statistics.median(setup),
            "wall_s": scale * sum(statistics.median(op) for op in zip(*untraced_lat)),
            "op_p50_ms": scale * 1e3 * statistics.median(tally.latencies),
            "op_tail_ms": scale * 1e3 * p_tail[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        detail["op_tail"] = {"percentile": p_tail[1], "samples": len(tally.latencies), "beyond": p_tail[2]}
        detail["pace_scale"] = scale
        detail["pace_s"] = paces
        detail["latencies_s"] = untraced_lat
        detail["setup_probes_s"] = setup
    else:
        runs = [spans.layer_values(t) for t in tracers]
        units = {m: unit for m, unit, *_ in spans.LAYER_METRICS}
        values = {}
        for metric, value in runs[0].items():
            if units[metric] in spans.EXACT_UNITS:
                if any(r[metric] != value for r in runs):
                    correct = False
                    print(f"perfbench: {metric} differs between traced passes: "
                          f"{[r[metric] for r in runs]}", file=sys.stderr)
                values[metric] = value
            else:
                values[metric] = statistics.median(r[metric] for r in runs)
        values["trace.overhead_s"] = (
            statistics.median(sum(p) for p in traced_lat)
            - statistics.median(sum(p) for p in untraced_lat)
        )
        detail["traced_passes"] = len(tracers)
        dump = bootstrap.WORK / f"spans-{name}-seed{seed}.json"
        spans.dump_spans(dump, {"workload": name, "seed": seed}, tracers)
        detail["spans"] = str(dump.relative_to(bootstrap.ROOT))

    detail["failed_op_ratio"] = tally.failed / tally.attempted
    detail["env"] = environment()
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, detail


def print_result(result: dict, detail: dict) -> None:
    print(f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"passes={detail['passes']} ops={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_op_ratio':36s} {detail['failed_op_ratio']:>14.6g} ratio")
    if "op_tail" in detail:
        t = detail["op_tail"]
        print(f"  op_tail_ms is p{t['percentile']:.1f} of {t['samples']} ops, {t['beyond']} beyond")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def smoke() -> int:
    """Tiny run of every workload in both modes against BENCHMARK.json."""
    import spans
    from workloads import GENERATORS

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    table = {name: (unit, better) for name, unit, better, *_ in spans.LAYER_METRICS}
    if declared != table:
        problems.append(f"per_layer in BENCHMARK.json != trace.LAYER_METRICS: {declared} vs {table}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(GENERATORS):
        problems.append(f"workloads {names} != {sorted(GENERATORS)}")
    for name in names:
        for trace in (False, True):
            result, _ = run_workload(name, 0, 0.0, trace, tiny=True)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} {kind}: reported {got}, declared {want}")
            bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{name} {kind}: non-finite {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} {kind}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} ops", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    bootstrap.prepare()
    if args.smoke:
        return smoke()
    from workloads import GENERATORS

    if args.workload not in GENERATORS:
        parser.error(f"--workload must be one of {sorted(GENERATORS)}")
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
