import numpy as np
import pytest

from chunkattn import (
    Engine,
    EngineConfig,
    ModelConfig,
    OracleDecoder,
    build_model,
    full_attention_forward,
)

from conftest import random_tokens


def make_engine(model, l=32, k=4, policy="top-k", seed=11, **kw):
    return Engine(model, EngineConfig(chunk_size=l, num_selected=k, policy=policy, seed=seed), **kw)


def test_single_partial_chunk_matches_oracle_exactly(tiny_model):
    toks = random_tokens(20)
    engine = make_engine(tiny_model)
    logits = engine.encode(toks)
    np.testing.assert_array_equal(logits, full_attention_forward(tiny_model, toks))


def test_short_context_generation_matches_oracle_exactly(tiny_model):
    toks = random_tokens(10)
    engine = make_engine(tiny_model)
    engine.encode(toks)
    generated = engine.generate(16)
    oracle = OracleDecoder(tiny_model)
    oracle.encode(toks)
    assert generated.tokens == oracle.generate(16).tokens


def test_saturated_selection_matches_oracle(tiny_model):
    # m = 128/32 = 4 chunks = k: selection saturates, remap is the identity
    toks = random_tokens(128)
    engine = make_engine(tiny_model, l=32, k=4)
    logits = engine.encode(toks)
    oracle_logits = full_attention_forward(tiny_model, toks)
    assert np.max(np.abs(logits - oracle_logits)) < 1e-5
    oracle = OracleDecoder(tiny_model)
    oracle.encode(toks)
    assert engine.generate(24).tokens == oracle.generate(24).tokens


def test_causality_under_selection(tiny_model):
    toks = random_tokens(150)
    t = 97
    perturbed = toks.copy()
    perturbed[t] = (perturbed[t] + 1) % 64
    a = make_engine(tiny_model).encode(toks)
    b = make_engine(tiny_model).encode(perturbed)
    np.testing.assert_array_equal(a[:t], b[:t])
    assert not np.array_equal(a[t:], b[t:])


def test_window_bound_encode_and_decode(tiny_model):
    l, k = 32, 4
    engine = make_engine(tiny_model, l=l, k=k)
    engine.encode(random_tokens(8 * l))
    engine.generate(2 * l + 3)
    assert engine.counters.encode_max_attended_rows <= k * l + l
    for step in engine.counters.steps:
        assert step.max_attended_rows <= k * l + l


def test_per_step_gathered_rows_independent_of_length(tiny_model):
    per_step = {}
    for n in (256, 384, 512):
        engine = make_engine(tiny_model, l=32, k=4, residency="offload")
        engine.encode(random_tokens(n))
        engine.generate(6)
        per_step[n] = [s.rows_gathered for s in engine.counters.steps]
        loads = [s.rows_loaded for s in engine.counters.steps]
        # every step reloads exactly the selected window from the offload tier
        assert loads == [4 * 32 * 2 * 4] * 6  # k*l per (layer, head)
    assert per_step[256] == per_step[384] == per_step[512]


def test_oracle_attended_rows_grow_with_length(tiny_model):
    rows = {}
    for n in (64, 128, 256):
        oracle = OracleDecoder(tiny_model)
        oracle.encode(random_tokens(n))
        oracle.generate(4)
        rows[n] = oracle.attended_rows_per_step
        assert rows[n][0] == n + 1
        assert rows[n] == [n + 1 + i for i in range(4)]


def test_determinism_of_traces_and_tokens(tiny_model):
    def run():
        engine = make_engine(tiny_model, l=32, k=4)
        engine.encode(random_tokens(200))
        toks = engine.generate(12)
        return toks.tokens, engine.trace.to_jsonable(), engine.counters_dict()

    a, b = run(), run()
    assert a == b


def test_rotary_positions_stay_in_distribution():
    # n = 8 * pretrain_length: vastly longer input than the position table
    cfg = ModelConfig.create(n_layers=2, n_heads=2, d_head=8, vocab_size=32,
                             pretrain_length=256, seed=5)
    model = build_model(cfg)
    l, k = 32, 4
    engine = make_engine(model, l=l, k=k)
    n = 8 * cfg.pretrain_length
    engine.encode(random_tokens(n, vocab=32))
    engine.generate(40)
    assert model.rope.max_position_applied < cfg.pretrain_length
    assert engine.counters.encode_max_rotary_position == k * l + l - 1
    recent = 0
    for step in engine.counters.steps:
        assert step.max_rotary_position == k * l + recent
        recent = (recent + 1) % l


def test_full_attention_oracle_would_reject_that_length():
    cfg = ModelConfig.create(n_layers=1, n_heads=2, d_head=8, vocab_size=32,
                             pretrain_length=256, seed=5)
    model = build_model(cfg)
    with pytest.raises(ValueError, match="exceeds pretrain length"):
        full_attention_forward(model, random_tokens(2048, vocab=32))


def test_mandatory_chunks_present_in_decode_trace(tiny_model):
    for policy in ("top-k", "random", "last-k"):
        engine = make_engine(tiny_model, l=32, k=4, policy=policy)
        engine.encode(random_tokens(320))
        engine.generate(8)
        decode_records = [r for r in engine.trace if r.step >= 320]
        assert decode_records
        sealed = 320 // 32
        for rec in decode_records:
            assert 0 in rec.chunks
            assert (sealed - 1) in rec.chunks or rec.step >= 320 + 32
            assert len(rec.chunks) <= 4


def test_no_first_policy_omits_first_chunk(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4, policy="no-first")
    engine.encode(random_tokens(320))
    engine.generate(4)
    decode_records = [r for r in engine.trace if r.step >= 320 and len(r.chunks) == 4]
    assert decode_records
    assert any(0 not in rec.chunks for rec in decode_records)


def test_fix_head_shares_selection_across_heads(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4, policy="fix-head")
    engine.encode(random_tokens(288))
    engine.generate(6)
    by_step_layer = {}
    for rec in engine.trace:
        by_step_layer.setdefault((rec.step, rec.layer), set()).add(rec.chunks)
    for sets in by_step_layer.values():
        assert len(sets) == 1


def test_fix_layer_shares_selection_across_layers(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4, policy="fix-layer")
    engine.encode(random_tokens(288))
    engine.generate(6)
    by_step_head = {}
    for rec in engine.trace:
        by_step_head.setdefault((rec.step, rec.head), set()).add(rec.chunks)
    for sets in by_step_head.values():
        assert len(sets) == 1


def test_fix_head_and_layer_shares_everywhere(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4, policy="fix-head-and-layer")
    engine.encode(random_tokens(288))
    engine.generate(6)
    by_step = {}
    for rec in engine.trace:
        by_step.setdefault(rec.step, set()).add(rec.chunks)
    for sets in by_step.values():
        assert len(sets) == 1


def test_trace_has_one_record_per_step_layer_head(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4)
    engine.encode(random_tokens(100))
    engine.generate(5)
    keys = [(r.step, r.layer, r.head) for r in engine.trace]
    assert len(keys) == len(set(keys)) == 105 * 2 * 4


def test_engine_lifecycle_errors(tiny_model):
    engine = make_engine(tiny_model)
    with pytest.raises(RuntimeError, match="encode"):
        engine.generate(1)
    with pytest.raises(ValueError, match="empty"):
        engine.encode([])
    engine.encode(random_tokens(10))
    with pytest.raises(RuntimeError, match="already"):
        engine.encode(random_tokens(10))
    with pytest.raises(ValueError, match="sampler"):
        engine.generate(1, sampler="nucleus")


def test_token_validation(tiny_model):
    engine = make_engine(tiny_model)
    with pytest.raises(ValueError, match="token ids"):
        engine.encode([999])


def test_token_sequence_input(tiny_model):
    from chunkattn import TokenSequence

    toks = random_tokens(50)
    a = make_engine(tiny_model).encode(TokenSequence(tuple(int(t) for t in toks)))
    b = make_engine(tiny_model).encode(toks)
    np.testing.assert_array_equal(a, b)


def test_oracle_forward_delegates(tiny_model):
    toks = random_tokens(50)
    engine = make_engine(tiny_model)
    np.testing.assert_array_equal(
        engine.oracle_forward(toks), full_attention_forward(tiny_model, toks)
    )


def test_record_scores_populates_candidates(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4, record_scores=True)
    engine.encode(random_tokens(200))
    engine.generate(3)
    scored = [r for r in engine.trace if r.candidates]
    assert scored
    for rec in scored[:20]:
        assert len(rec.candidates) == len(rec.scores)


def test_record_scores_with_layer_sharing(tiny_model):
    # reused layer-0 selections still get their own layer's diagnostic scores
    engine = make_engine(tiny_model, l=32, k=4, policy="fix-layer", record_scores=True)
    engine.encode(random_tokens(200))
    upper = [r for r in engine.trace if r.layer == 1 and r.candidates]
    lower = {(r.step, r.head): r for r in engine.trace if r.layer == 0 and r.candidates}
    assert upper
    for rec in upper[:10]:
        ref = lower[(rec.step, rec.head)]
        assert rec.chunks == ref.chunks
        assert rec.scores != ref.scores


def test_encode_uses_store_sealing(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4)
    engine.encode(random_tokens(100))
    assert engine.store.sealed_count(0, 0) == 3
    assert engine.store.recent_len(0, 0) == 4
    engine.generate(28)
    assert engine.store.sealed_count(0, 0) == 4
    assert engine.store.recent_len(0, 0) == 0


def test_rotary_counter_ignores_other_users_of_the_model(tiny_config):
    # the model's rotary table is shared; an oracle pass over 250 tokens
    # must not leak into a later engine's own maximum
    model = build_model(tiny_config)
    full_attention_forward(model, random_tokens(250))
    engine = make_engine(model, l=32, k=4)
    engine.encode(random_tokens(20))
    assert engine.counters.encode_max_rotary_position == 19
    engine.generate(3)
    assert [s.max_rotary_position for s in engine.counters.steps] == [20, 21, 22]
    # the table keeps its own monotone record
    assert model.rope.max_position_applied == 249


def test_residency_modes_give_identical_outputs(tiny_model):
    n, l, k, steps = 600, 16, 4, 24
    toks = random_tokens(n)
    runs = {}
    for residency, budget in (("hot", None), ("offload", None), ("budget", 64)):
        engine = make_engine(tiny_model, l=l, k=k, residency=residency, budget=budget)
        encoded = engine.encode(toks)
        logits = [encoded]
        tokens = []
        for _ in range(steps):
            tokens.extend(engine.generate(1).tokens)
            logits.append(engine.last_logits)
        runs[residency] = (
            [a.tobytes() for a in logits],
            tokens,
            engine.store.tokens_loaded_total,
        )
    hot, offload, budget = runs["hot"], runs["offload"], runs["budget"]
    assert hot[:2] == offload[:2] == budget[:2]
    L, H = tiny_model.config.n_layers, tiny_model.config.n_heads
    assert hot[2] == 0
    assert offload[2] == steps * L * H * k * l == 12288
    assert budget[2] == 4816  # pins the least-recently-gathered eviction order


@pytest.mark.parametrize("policy", ["top-k", "random", "last-k", "no-first",
                                    "fix-head", "fix-layer", "fix-head-and-layer"])
def test_prefill_matches_one_decode_step(tiny_model, policy):
    l, k = 16, 4
    for n in (200, 207, 208, 599):
        toks = random_tokens(n + 1, seed=n)
        engine = make_engine(tiny_model, l=l, k=k, policy=policy)
        engine.encode(toks[:n])
        # make token n the one greedy decoding feeds next
        toks[n] = int(np.argmax(engine.last_logits))
        engine.generate(1)
        prefill = make_engine(tiny_model, l=l, k=k, policy=policy).encode(toks)[-1]
        assert np.max(np.abs(engine.last_logits - prefill)) < 1e-12
