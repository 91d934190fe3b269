"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workloads a,b] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one process at a time,
and prints for each end-to-end metric its median, quartiles and the
spread (Q3 - Q1) / median, quartiles as `statistics.quantiles(n=4)` gives
them, next to a third of the metric's bound from BENCHMARK.json. With
`--out` it also writes every run's values, environment and operation
counts as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
    return {"seed": seed, "elapsed_s": elapsed, "result": json.loads(lines[-1]), "detail": detail}


def summarize(values: list) -> dict:
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            run = run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            runs.append(run)
            print(
                f"{workload} seed={run['seed']} correct={run['result']['correct']}"
                f" elapsed={run['elapsed_s']:.1f}s",
                flush=True,
            )
        summary = {}
        print(f"{workload}: {args.runs} runs")
        for metric in declared:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarize(values)
            line = (
                f"  {name:40s} median {summary[name]['median']:>14.6g} {metric['unit']:8s}"
                f" spread {summary[name]['spread']:7.4f}"
            )
            if "bound" in metric:
                ok = name == "setup_s" or summary[name]["spread"] < metric["bound"] / 3
                steady = steady and ok
                line += f" (bound/3 {metric['bound'] / 3:.4f}){'' if ok else '  WIDE'}"
            print(line, flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
