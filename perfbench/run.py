"""End-to-end and per-layer benchmark of the chunkattn engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `chunkattn` from its
`src/`. Each pass is one sequence processed the way `chunkattn run` does
it (see workloads.py); passes repeat, each with the same prompt drawn from
`--seed`, until `--seconds` would be exceeded. With `--trace 0` the last
line of output reports the end-to-end metrics named in BENCHMARK.json;
with `--trace 1` untraced and traced passes alternate and it reports the
per-layer metrics from the traced ones, plus the tracing overhead. The
per-layer spans are written to perfbench/out/ when the run ends.

End-to-end times are reported at the reference machine speed that
probe.py samples during the run; the wall times are in the `detail` line.

Everything runs in this one process, one sequence at a time, with no
threads of its own: a closed loop with one client.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PER_PASS = 5


def import_engine():
    """Import `chunkattn` from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chunkattn

    where = Path(chunkattn.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"chunkattn imported from {where}, not from {src}")


def blas_info() -> dict:
    info = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    blas = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["version"],
        "blas_threads": blas["threads"],
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_passes(w, seed: int, seconds: float, traced: bool, sampler):
    """Repeat passes until the next one would end past `seconds`.

    Before each untraced pass, set-up alone is timed SETUP_PER_PASS times.
    Traced runs alternate an untraced and a traced pass, starting with the
    untraced one. Speed sampling pauses during traced passes, so that no
    probe falls inside a span. Returns the untraced passes, the traced
    passes, their tracers and the set-up intervals.
    """
    import tracing
    import workloads

    report_dir = OUT / f"report-{os.getpid()}"
    plain, traced_passes, tracers, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            start = time.perf_counter_ns()
            workloads.setup(w, seed)
            setups.append((start, time.perf_counter_ns()))
        plain.append(workloads.run_pass(w, seed, report_dir, sampler))
        if traced:
            gc.collect()
            tracer = tracing.Tracer(f"{w.name}-seed{seed}-pass{len(tracers)}-pid{os.getpid()}")
            sampler.stop()
            with tracing.instrument(tracer):
                res = workloads.run_pass(
                    w, seed, report_dir, span=tracer.span, count_evictions=True
                )
            sampler.start()
            traced_passes.append(res)
            tracers.append(tracer)
        took = time.perf_counter() - t0
        if time.perf_counter() + took > deadline:
            return plain, traced_passes, tracers, setups


def timings(w, passes, setup_intervals, sampler, ref: bool) -> dict:
    """Set-up, prefill, decode and report times, at the probe's reference
    speed (`ref`) or as wall time."""
    pick = 1 if ref else 0

    def seconds(interval):
        return sampler.measured(*interval)[pick]

    steps = [seconds(s) * 1e3 for p in passes for s in p.steps]
    return {
        "setup_s": statistics.median(seconds(s) for s in setup_intervals),
        "prefill_us_per_tok": statistics.median(seconds(p.encode) for p in passes if p.encode)
        / w.n
        * 1e6,
        "decode_ms_p50": percentile(steps, 50),
        "decode_ms_p95": percentile(steps, 95),
        "report_s": statistics.median(seconds(p.report) for p in passes if p.report),
    }


def end_to_end(w, passes, setup_intervals, sampler) -> dict:
    loaded = [r for p in passes for r in p.rows_loaded]
    attempted = sum(sum(p.attempted.values()) for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)
    return {
        **timings(w, passes, setup_intervals, sampler, ref=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "offload_rows_per_step": statistics.median(loaded),
        "hot_tokens_peak": statistics.median(
            p.hot_tokens_peak for p in passes if p.hot_tokens_peak is not None
        ),
        "success_rate": 1.0 - failed / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_engine()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the engine or BENCHMARK.json from {ROOT}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from probe import PERIOD_S, REFERENCE_S, SpeedSampler

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    env = environment()

    # Warm code paths on a short prompt of the same shape; not timed.
    warm = dataclasses.replace(w, n=(w.k + 2) * w.chunk_size, steps=8)
    workloads.run_pass(warm, args.seed, OUT / f"report-{os.getpid()}")

    sampler = SpeedSampler()
    sampler.start()
    try:
        plain, traced, tracers, setup_intervals = run_passes(
            w, args.seed, args.seconds, bool(args.trace), sampler
        )
    finally:
        sampler.stop()
    passes = plain + traced
    digest = workloads.check_tokens(w, args.seed, passes)
    attempted = sum(sum(p.attempted.values()) for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)
    probe_s = [duration / 1e9 for _, duration in sampler.samples]

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": len(plain),
        "samples": {
            "setup": len(setup_intervals),
            "decode_steps": sum(len(p.steps) for p in plain),
            "probes": len(probe_s),
        },
        "probe_s": {
            "reference": REFERENCE_S,
            "period": PERIOD_S,
            "median": statistics.median(probe_s),
            "min": min(probe_s),
            "max": max(probe_s),
        },
        "wall": timings(w, plain, setup_intervals, sampler, ref=False),
        "ops": workloads.op_table(passes),
        "token_sha256": digest,
    }
    if args.trace:
        d_head = workloads.MODEL["d_head"]
        layer_runs = [tracing.layer_metrics(t, r, d_head) for r, t in zip(traced, tracers)]
        values = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}

        def pass_s(p):
            return sum(sampler.measured(*interval)[1] for interval in p.intervals())

        traced_s = statistics.median(pass_s(p) for p in traced)
        plain_s = statistics.median(pass_s(p) for p in plain)
        values["tracing.overhead_s"] = traced_s - plain_s
        detail["traced_passes"] = len(traced)
        detail["pass_ref_s"] = {"untraced": plain_s, "traced": traced_s}
        detail["phase_shares"] = tracing.phase_shares(tracers[-1])
        detail["hot_hit_ratio_base"] = {
            "rows_loaded": values["cache.rows_loaded"],
            "sealed_rows_gathered": values["cache.sealed_rows_gathered"],
        }
        tracing.write_spans(tracers, OUT / f"spans-{w.name}-seed{args.seed}.json")
        declared = spec["per_layer"]
    else:
        values = end_to_end(w, plain, setup_intervals, sampler)
        detail["error_rate"] = failed / attempted
        declared = spec["end_to_end"]

    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        print(f"error: metrics computed and declared differ: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
