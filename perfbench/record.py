"""Run the benchmark over several seeds and record one trajectory point.

    python3 perfbench/record.py --label 581fd38 --out perfbench/results/BENCH_581fd38.json
    python3 perfbench/record.py --seeds 5 --workloads scenario_large   # spread check only

For each workload: untraced runs with seeds 1..--seeds; per end-to-end
metric the median, quartiles and spread (q3 - q1) / median next to the
bound in BENCHMARK.json; then two traced runs of seed 1, whose exact
per-layer counts must agree, and their per-layer values. Exits 1 when any
run reports a failed operation or an incorrect result.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

import bootstrap
import spans

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bootstrap.ROOT,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail "))


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "within_third_of_bound": spread <= bound / 3}


def record_workload(workload: str, seeds: int, bench: dict) -> dict:
    seconds = bench["run_seconds"]
    results, details = [], []
    for seed in range(1, seeds + 1):
        result, detail = run_once(workload, seed, seconds, 0)
        results.append(result)
        details.append(detail)
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"{workload} seed={seed} correct={result['correct']} {shown}", file=sys.stderr)

    e2e = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        e2e[m["name"]] = {"unit": m["unit"], **summarize(values, m["bound"])}

    traced = [run_once(workload, 1, seconds, 1)[0] for _ in range(2)]
    exact = [name for name, unit, *_ in spans.LAYER_METRICS if unit in spans.EXACT_UNITS]
    counts = [{k: r["metrics"][k]["value"] for k in exact} for r in traced]
    print(f"{workload} traced twice: counts repeat={counts[0] == counts[1]}", file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in results + traced),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": e2e,
        "op_tail": [d["op_tail"] for d in details],
        "pace_scale": [d["pace_scale"] for d in details],
        "per_layer": traced[0]["metrics"],
        "per_layer_counts_repeat_across_runs": counts[0] == counts[1],
        "env": details[0]["env"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="unlabelled")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", type=Path, help="write the trajectory point here")
    args = parser.parse_args()

    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    point = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "layer_table": [
            {"name": n, "unit": u, "better": b, "moves": moves, "on": where}
            for n, u, b, moves, where, _ in spans.LAYER_METRICS
        ],
        "workloads": {},
    }
    ok = True
    for name in names:
        rec = record_workload(name, args.seeds, bench)
        point["workloads"][name] = rec
        ok &= rec["correct"] and rec["failed"] == 0 and rec["per_layer_counts_repeat_across_runs"]
        for metric, s in rec["end_to_end"].items():
            print(f"{name:15s} {metric:12s} median={s['median']:.5g} {s['unit']:4s} "
                  f"spread={s['spread']:.4f} bound={s['bound']} "
                  f"{'ok' if s['within_third_of_bound'] else 'WIDE'}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
