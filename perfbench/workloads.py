"""Workload definitions, one timed pass over a workload, and its output checks.

A pass does what `chunkattn run` does for one sequence: build the model
and engine, encode a prompt, decode greedily one token at a time, then
compute the selection metrics and export the trace and heatmap. Timing
covers only the engine and report calls; the checks run afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chunkattn.analysis as analysis
from chunkattn import Engine, EngineConfig, ModelConfig, build_model

# The CLI's default model shape.
MODEL = dict(n_layers=2, n_heads=4, d_head=16, vocab_size=64, pretrain_length=1024, seed=7)

# The seed whose generated tokens are pinned by `Workload.digest`.
DEFAULT_SEED = 0

PHASES = ("encode", "decode", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    chunk_size: int
    k: int
    residency: str
    budget: int | None
    steps: int
    digest: str  # sha256 of the generated token ids at DEFAULT_SEED


# Each workload stresses different layers; BENCHMARK.json gives the reasons.
WORKLOADS = {
    w.name: w
    for w in (
        # Encode-bound: rotary on gathered rows and the inline encode kernel.
        Workload(
            name="prefill_4k",
            n=4096,
            chunk_size=64,
            k=8,
            residency="offload",
            budget=None,
            steps=200,
            digest="ca7e6a80f8e3fd901b4452623bb1542766888761c41081420783ac57d259f5dc",
        ),
        # m=512 chunks: per-step work that is O(m), with k*l rows loaded.
        Workload(
            name="decode_m512",
            n=8192,
            chunk_size=16,
            k=8,
            residency="offload",
            budget=None,
            steps=256,
            digest="ba94d31bc6cb5c46fbdc591874ba09d0faba4371e60fc923f26d2d91ce562c6d",
        ),
        # Hot tier at the k*l working-set floor: promotions and evictions.
        Workload(
            name="decode_budget",
            n=2048,
            chunk_size=64,
            k=8,
            residency="budget",
            budget=512,
            steps=256,
            digest="bf861e3c3d2b1640e032d80c48a45125e43fac2d3013a12d7020c31dedbd07c6",
        ),
    )
}


def token_digest(tokens) -> str:
    return hashlib.sha256(np.asarray(tokens, dtype=np.int64).tobytes()).hexdigest()


def setup(w: Workload, seed: int):
    """Model build, engine construction and prompt generation."""
    model = build_model(ModelConfig.create(**MODEL))
    engine = Engine(
        model,
        EngineConfig(chunk_size=w.chunk_size, num_selected=w.k),
        residency=w.residency,
        budget=w.budget,
    )
    prompt = np.random.default_rng(seed).integers(0, MODEL["vocab_size"], size=w.n)
    return engine, prompt


class CheckFailed(Exception):
    """An output of the engine disagrees with what the workload implies."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class PassResult:
    """Timings, counters and operation counts of one pass."""

    # (start, end) in perf_counter_ns of encode, each decode step and the report.
    encode: tuple | None = None
    steps: list = field(default_factory=list)
    report: tuple | None = None
    rows_loaded: list = field(default_factory=list)
    rows_gathered: list = field(default_factory=list)
    sealed_rows_gathered: list = field(default_factory=list)
    hot_tokens_peak: int | None = None
    evictions: int = 0
    tokens: list = field(default_factory=list)
    trace_records: int = 0
    attempted: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0))
    failed: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0))
    error: str | None = None

    def intervals(self) -> list:
        return ([self.encode] if self.encode else []) + self.steps + ([self.report] if self.report else [])

    def fail_all(self) -> None:
        self.failed = dict(self.attempted)


def _hot_flags(store):
    L, H = store.n_layers, store.n_heads
    return [[store.residency_flags(layer, head) for head in range(H)] for layer in range(L)]


def _flips(before, after) -> int:
    """Slabs that were hot in `before` and are offloaded in `after`."""
    count = 0
    for row_b, row_a in zip(before, after):
        for flags_b, flags_a in zip(row_b, row_a):
            count += sum(1 for b, a in zip(flags_b, flags_a) if b == "hot" and a == "offloaded")
    return count


def run_pass(
    w: Workload,
    seed: int,
    out_dir: Path,
    sampler=None,
    *,
    span=None,
    count_evictions: bool = False,
) -> PassResult:
    """One timed pass over `w`, followed by its output checks.

    Records when each encode, decode step and report call starts and ends;
    converting those intervals to times is left to the caller, which knows
    the machine's speed around them. A running `sampler` probes that speed
    between decode steps rather than inside them. `span(name)` opens a benchmark-owned span
    around the selection-metric calls when tracing; `count_evictions`
    snapshots residency between steps. A raised exception or failed check
    is recorded in the result, never propagated: it shows in the
    failed-operation counts.
    """
    span = span or (lambda name: contextlib.nullcontext())
    res = PassResult()
    clock = time.perf_counter_ns
    engine, prompt = setup(w, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    phase = "encode"
    try:
        res.attempted["encode"] += 1
        t0 = clock()
        logits = engine.encode(prompt)
        res.encode = (t0, clock())
        _check(bool(np.isfinite(logits).all()), "encode produced non-finite logits")

        phase = "decode"
        flags = _hot_flags(engine.store) if count_evictions else None
        with sampler.between_calls() if sampler else contextlib.nullcontext():
            for _ in range(w.steps):
                res.attempted["decode"] += 1
                t0 = clock()
                out = engine.generate(1)
                res.steps.append((t0, clock()))
                if sampler:
                    sampler.poll()
                res.tokens.extend(out.tokens)
                _check(
                    bool(np.isfinite(engine.last_logits).all()), "decode produced non-finite logits"
                )
                if count_evictions:
                    now = _hot_flags(engine.store)
                    res.evictions += _flips(flags, now)
                    flags = now

        phase = "report"
        res.attempted["report"] += 1
        trace = engine.trace
        m = engine.layout.m
        t0 = clock()
        trace.meta["m"] = m
        trace.to_json(out_dir / "trace.json")
        analysis.export_heatmap(trace, out_dir / "heatmap.csv")
        with span("analysis.metrics"):
            counts = trace.selection_counts(m)
            cover = analysis.cover_rate(trace, m)
            gini = analysis.gini(counts) if counts.sum() else 0.0
        res.report = (t0, clock())

        phase = "checks"
        _check_steps(w, engine, res)
        _check_report(w, engine, counts, cover, gini, out_dir)
    except CheckFailed as exc:
        res.error = f"check failed: {exc}"
        res.fail_all()
    except Exception:  # a failing engine call must not end the run
        res.error = traceback.format_exc()
        if phase in res.failed:
            res.failed[phase] += 1
        else:
            res.fail_all()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if res.error:
        print(f"[{w.name} seed={seed}] {res.error}", file=sys.stderr)
    return res


def _check_steps(w: Workload, engine, res: PassResult) -> None:
    """Check per-step row counts and rotary positions, from the engine's
    counters and selection trace, against what the workload's shape
    implies, and keep the counters in `res`."""
    mc = engine.model.config
    L, H, l, k = mc.n_layers, mc.n_heads, w.chunk_size, w.k
    units = L * H
    steps = engine.counters.steps
    _check(len(steps) == w.steps, f"{len(steps)} step counters for {w.steps} steps")
    records = engine.trace.records
    _check(len(records) == units * (w.n + w.steps), f"{len(records)} trace records")
    decode_records = records[units * w.n :]
    for j, sc in enumerate(steps):
        pos = w.n + j
        recent, sealed = pos % l, pos // l
        recs = decode_records[j * units : (j + 1) * units]
        _check(all(r.step == pos for r in recs), f"trace records out of order at step {pos}")
        sizes = [len(r.chunks) for r in recs]
        gathered = sum(size * l + recent for size in sizes)
        _check(
            sc.rows_gathered == gathered,
            f"step {pos}: {sc.rows_gathered} rows gathered, selections imply {gathered}",
        )
        if sealed >= k:
            _check(all(s == k for s in sizes), f"step {pos}: selection sizes {sizes}, k={k}")
            _check(
                sc.max_rotary_position == k * l + recent,
                f"step {pos}: max rotary position {sc.max_rotary_position}, "
                f"expected k*l + recent = {k * l + recent}",
            )
            if w.residency == "offload":
                _check(
                    sc.rows_loaded == units * k * l,
                    f"step {pos}: {sc.rows_loaded} rows loaded, expected L*H*k*l = {units * k * l}",
                )
        _check(
            sc.max_rotary_position < mc.pretrain_length,
            f"step {pos}: rotary position {sc.max_rotary_position} reaches the pretrain length",
        )
        _check(sc.rows_loaded <= gathered - units * recent, f"step {pos}: loaded more than sealed")
        res.rows_loaded.append(sc.rows_loaded)
        res.rows_gathered.append(sc.rows_gathered)
        res.sealed_rows_gathered.append(sc.rows_gathered - units * recent)
    peak = engine.store.peak_hot_tokens
    ceiling = units * ((w.budget or 0) + l)
    _check(peak <= ceiling, f"peak hot tokens {peak} above {ceiling}")
    res.hot_tokens_peak = peak
    res.trace_records = len(records)


def _check_report(w: Workload, engine, counts, cover, gini, out_dir: Path) -> None:
    mc = engine.model.config
    m = engine.layout.m
    selected = sum(len(r.chunks) for r in engine.trace.records)
    _check(int(counts.sum()) == selected, f"selection counts sum {counts.sum()}, expected {selected}")
    _check(cover == np.count_nonzero(counts) / m, f"cover rate {cover} disagrees with counts")
    _check(0.0 <= gini <= 1.0 - 1.0 / m + 1e-12, f"gini {gini} outside [0, 1 - 1/m]")
    _check((out_dir / "trace.json").stat().st_size > 0, "empty trace.json")
    with open(out_dir / "heatmap.csv", newline="") as f:
        rows = list(csv.reader(f))
    _check(len(rows) == 1 + mc.n_layers * mc.n_heads, f"heatmap has {len(rows)} rows")
    total = sum(int(v) for row in rows[1:] for v in row[2:])
    _check(total == selected, f"heatmap counts sum {total}, expected {selected}")


def check_tokens(w: Workload, seed: int, passes) -> str:
    """Fail every pass whose tokens differ from the first pass's, and every
    pass when the default seed does not reproduce the recorded digest.
    Returns the digest of the first pass's tokens."""
    reference = passes[0].tokens
    for p in passes:
        if p.tokens != reference and p.error is None:
            p.error = "generated tokens differ between passes of one run"
            p.fail_all()
    digest = token_digest(reference)
    if seed == DEFAULT_SEED and digest != w.digest:
        for p in passes:
            p.error = p.error or f"token digest {digest} != recorded {w.digest}"
            p.fail_all()
    return digest


def op_table(passes) -> dict:
    """Operations attempted, succeeded and failed per phase."""
    table = {}
    for phase in PHASES:
        attempted = sum(p.attempted[phase] for p in passes)
        failed = sum(p.failed[phase] for p in passes)
        table[phase] = {"attempted": attempted, "succeeded": attempted - failed, "failed": failed}
    return table
