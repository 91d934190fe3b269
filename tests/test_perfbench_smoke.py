"""The benchmark's own pass, run small, plain and traced.

perfbench/ reaches into the engine by name: `trace.records`, the class
methods that `tracing.instrument` wraps, and the checks in `run_pass`. A
refactor that breaks one of them fails here rather than only in a
benchmark run. `tracing.instrument` replaces `select` and `rank_top` in
`chunkattn.engine`'s namespace, so the engine must call both through
that module's names for their spans to fire.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_pass_runs_plain_and_traced(name, tmp_path):
    w = workloads.WORKLOADS[name]
    # The warm-up shape of perfbench/run.py.
    warm = dataclasses.replace(w, n=(w.k + 2) * w.chunk_size, steps=8)
    res = workloads.run_pass(warm, 0, tmp_path / "plain")
    assert res.error is None, res.error

    tracer = tracing.Tracer(name)
    with tracing.instrument(tracer):
        res = workloads.run_pass(
            warm, 0, tmp_path / "traced", span=tracer.span, count_evictions=True
        )
    assert res.error is None, res.error
    assert {name for _, _, name, _ in tracing.TARGETS} <= set(tracer.names)
    metrics = tracing.layer_metrics(tracer, res, workloads.MODEL["d_head"])
    units = workloads.MODEL["n_layers"] * workloads.MODEL["n_heads"]
    assert metrics["trace.records"] == units * (warm.n + warm.steps)
