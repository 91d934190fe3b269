"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from chunkattn import (
    Engine,
    EngineConfig,
    ModelConfig,
    OracleDecoder,
    SelectionTrace,
    build_model,
    cover_rate,
    gini,
    run_passkey_trials,
    select,
)
from chunkattn.cli import main

from conftest import random_tokens


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence_saturated():
    start = time.perf_counter()
    cfg = ModelConfig.create(
        n_layers=2, n_heads=4, d_head=16, vocab_size=64, pretrain_length=1024, seed=7
    )
    model = build_model(cfg)
    engine = Engine(model, EngineConfig(chunk_size=64, num_selected=8, seed=11))
    tokens = random_tokens(512, seed=1)
    engine_logits = engine.encode(tokens)
    engine_tokens = engine.generate(32)
    oracle = OracleDecoder(model)
    oracle_logits = oracle.encode(tokens)
    oracle_tokens = oracle.generate(32)
    diff = float(np.max(np.abs(engine_logits - oracle_logits)))
    elapsed = time.perf_counter() - start
    ok = diff <= 1e-5 and engine_tokens.tokens == oracle_tokens.tokens and elapsed < 10.0
    report(
        1,
        ok,
        f"max_abs_diff={diff:.2e} (tol 1e-5), 32 greedy tokens "
        f"{'match' if engine_tokens.tokens == oracle_tokens.tokens else 'DIFFER'}, "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_passkey_hit_rates_and_chance_calibration():
    start = time.perf_counter()
    details = []
    ok = True
    for m in (16, 64, 128):
        rep, _ = run_passkey_trials(m, 8, 10.0, trials=50, seed=21, chunk_size=8, n_heads=4)
        ok = ok and rep.hit_rate_top1 == 1.0
        details.append(f"m={m}: top1={rep.hit_rate_top1:.2f}")
    for m in (16, 64, 128):
        trials = 1000
        rep0, _ = run_passkey_trials(m, 8, 0.0, trials=trials, seed=22, chunk_size=8, n_heads=2)
        chance = 1.0 / (m - 2)
        delta = abs(rep0.hit_rate_top1 - chance)
        ok = ok and delta <= 0.05
        details.append(f"m={m}: gap0 top1={rep0.hit_rate_top1:.4f} vs {chance:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(2, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 60s)")


def test_criterion_3_metric_machinery():
    checks = {
        "gini(uniform)=0": gini([3, 3, 3, 3]) == 0.0,
        "gini([1,2,3,4])=0.25": gini([1, 2, 3, 4]) == 0.25,
        "gini(delta,m=100)=0.99": abs(gini([0] * 99 + [5]) - 0.99) <= 1e-12,
    }
    rng = np.random.default_rng(31)
    recount_ok = True
    for _ in range(100):
        m = int(rng.integers(3, 24))
        trace = SelectionTrace()
        union = set()
        for step in range(int(rng.integers(1, 8))):
            chunks = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m)), replace=False)))
            trace.append(step, 0, 0, chunks)
            union |= set(int(c) for c in chunks)
        recount_ok = recount_ok and cover_rate(trace, m) == len(union) / m
    checks["cover_rate matches recount x100"] = recount_ok
    ok = all(checks.values())
    report(3, ok, ", ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_4_decode_load_constant_in_n():
    cfg = ModelConfig.create(
        n_layers=1, n_heads=2, d_head=8, vocab_size=64, pretrain_length=32768, seed=3
    )
    model = build_model(cfg)
    econf = EngineConfig(chunk_size=64, num_selected=4, seed=1)
    steps = 8
    engine_rows = {}
    oracle_rows = {}
    for n in (1024, 4096, 16384):
        engine = Engine(model, econf, residency="offload")
        tokens = random_tokens(n, seed=n)
        engine.encode(tokens)
        engine.generate(steps)
        engine_rows[n] = [s.rows_gathered for s in engine.counters.steps]
        oracle = OracleDecoder(model)
        oracle.encode(tokens)
        oracle.generate(steps)
        oracle_rows[n] = oracle.attended_rows_per_step
    constant = engine_rows[1024] == engine_rows[4096] == engine_rows[16384]
    oracle_grows = all(
        oracle_rows[n] == [n + 1 + i for i in range(steps)] for n in (1024, 4096, 16384)
    )
    ok = constant and oracle_grows
    report(
        4,
        ok,
        f"engine rows/step {engine_rows[1024]} equal across n (exact={constant}); "
        f"oracle rows/step start at n+1: "
        f"{[oracle_rows[n][0] for n in (1024, 4096, 16384)]}",
    )


def test_criterion_5_positions_stay_in_distribution():
    L, l, k = 256, 32, 4
    cfg = ModelConfig.create(
        n_layers=2, n_heads=2, d_head=8, vocab_size=32, pretrain_length=L, seed=5
    )
    model = build_model(cfg)
    engine = Engine(model, EngineConfig(chunk_size=l, num_selected=k, seed=2))
    n = 8 * L  # far beyond what full attention could position
    engine.encode(random_tokens(n, vocab=32, seed=9))
    engine.generate(48)
    steps = engine.counters.steps
    max_pos = max(
        engine.counters.encode_max_rotary_position, *(s.max_rotary_position for s in steps)
    )
    in_dist = max_pos < L
    exact = True
    recent = 0
    for step in steps:
        exact = exact and step.max_rotary_position == k * l + recent
        recent = (recent + 1) % l
    ok = in_dist and exact
    report(
        5,
        ok,
        f"n={n} >> L={L}: max rotary position {max_pos} < L ({in_dist}); "
        f"per-step max == k*l+recent_len exactly ({exact})",
    )


def test_criterion_6_ablation_directionality():
    trials = 200
    m, k = 32, 6
    kwargs = dict(trials=trials, seed=61, target_range=(1, m - k + 1), chunk_size=8)
    top, _ = run_passkey_trials(m, k, 10.0, policy="top-k", **kwargs)
    rnd, _ = run_passkey_trials(m, k, 10.0, policy="random", **kwargs)
    last, _ = run_passkey_trials(m, k, 10.0, policy="last-k", **kwargs)
    records = trials * 4  # heads

    def z(p_hi, p_lo):
        var = p_hi * (1 - p_hi) / records + p_lo * (1 - p_lo) / records
        return (p_hi - p_lo) / np.sqrt(var) if var > 0 else np.inf

    z1 = z(top.retrieval_rate, rnd.retrieval_rate)
    z2 = z(rnd.retrieval_rate, last.retrieval_rate)
    ordered = top.retrieval_rate > rnd.retrieval_rate > last.retrieval_rate
    ok = ordered and z1 > 3.0 and z2 > 3.0
    nofirst, _ = run_passkey_trials(m, k, 10.0, policy="no-first", **kwargs)
    report(
        6,
        ok,
        f"retrieval: top-k={top.retrieval_rate:.3f} > random={rnd.retrieval_rate:.3f} "
        f"> last-k={last.retrieval_rate:.3f}; z1={z1:.1f}, z2={z2:.1f} (both > 3); "
        f"no-first flagged degenerate (real-model collapse out of scope), "
        f"retrieval={nofirst.retrieval_rate:.3f}",
    )


def test_criterion_7_mandatory_membership_over_random_selections():
    rng = np.random.default_rng(71)
    ok = True
    policies = ("top-k", "random", "last-k")
    for i in range(10_000):
        policy = policies[i % 3]
        n_cands = int(rng.integers(0, 10))
        k = int(rng.integers(2, 7))
        d = 4
        q = rng.normal(size=d)
        if np.linalg.norm(q) < 1e-9:
            q = np.ones(d)
        # chunk c's vector is row c - 1; each draw also consumes the q_c
        # vector the list-based form drew, so the cases are unchanged
        cands = rng.normal(size=(n_cands, 2, d))[:, 0]
        first, last = 0, n_cands + 1
        ids = select(
            (cands @ q)[None, None], [last], k, policy,
            [[np.random.default_rng(int(rng.integers(0, 2**32)))]],
        )
        chunks = ids[0, 0].tolist()
        ok = ok and first in chunks and last in chunks and len(chunks) <= k
        if not ok:
            break
    report(7, ok, "10,000 random selections: first and last always present, |P| <= k")


def test_criterion_8_byte_identical_reruns(tmp_path):
    model = dict(n_layers=2, n_heads=4, d_head=8, d_model=32, vocab_size=64,
                 pretrain_length=512, seed=13)
    engine = dict(chunk_size=32, num_selected=4, policy="top-k", seed=5)
    tokens_path = tmp_path / "tokens.json"
    tokens_path.write_text(json.dumps([int(t) for t in random_tokens(300, seed=8)]))
    desc_path = tmp_path / "run.json"
    desc_path.write_text(
        json.dumps(
            {"model": model, "engine": engine, "input": str(tokens_path),
             "steps": 16, "residency": "budget:256"}
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--descriptor", str(desc_path), "--out", str(out_a)]) == 0
    assert main(["run", "--descriptor", str(desc_path), "--out", str(out_b)]) == 0
    same = {
        name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("metrics.json", "trace.json", "heatmap.csv")
    }
    ok = all(same.values())
    report(8, ok, "re-run outputs byte-identical: " + ", ".join(f"{k}={v}" for k, v in same.items()))
