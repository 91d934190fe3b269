import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import (
    Engine,
    EngineConfig,
    HostModel,
    ModelConfig,
    OracleDecoder,
    build_model,
    full_attention_forward,
)

from conftest import random_tokens

POLICIES = ["top-k", "random", "last-k", "no-first", "fix-head", "fix-layer", "fix-head-and-layer"]


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


def test_generate_rejects_negative_steps_and_stays_usable(tiny_model):
    toks = random_tokens(40)
    engine, oracle = make_engine(tiny_model, l=16), OracleDecoder(tiny_model)
    for decoder in (engine, oracle):
        decoder.encode(toks)
        with pytest.raises(ValueError, match="steps=-3 must be >= 0"):
            decoder.generate(-3)
    # a refused call decodes nothing: both still agree from the prompt on
    assert engine.layout.n == oracle.n == 40
    assert engine.generate(4).tokens == oracle.generate(4).tokens


def test_saturated_selection_matches_oracle(tiny_model):
    # m = 128/32 = 4 chunks = k: selection saturates, remap is the identity
    toks = random_tokens(128)
    engine = make_engine(tiny_model, l=32, k=4)
    logits = engine.encode(toks)
    oracle = OracleDecoder(tiny_model)
    assert np.max(np.abs(logits - oracle.encode(toks))) < 1e-5
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


def test_determinism_of_traces_and_tokens(tiny_model, tmp_path):
    def run(name):
        engine = make_engine(tiny_model, l=32, k=4)
        engine.encode(random_tokens(200))
        toks = engine.generate(12)
        engine.trace.to_json(tmp_path / name)
        return toks.tokens, (tmp_path / name).read_bytes(), engine.counters_dict()

    a, b = run("a.json"), run("b.json")
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
    steps = engine.counters.steps
    max_pos = max(
        engine.counters.encode_max_rotary_position, *(s.max_rotary_position for s in steps)
    )
    assert max_pos < cfg.pretrain_length
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


def test_last_logits_do_not_pin_the_encode_logits(tiny_model):
    engine = make_engine(tiny_model)
    logits = engine.encode(random_tokens(70))
    assert engine.last_logits.base is None
    np.testing.assert_array_equal(engine.last_logits, logits[-1])


def test_token_validation(tiny_model):
    engine = make_engine(tiny_model)
    with pytest.raises(ValueError, match="token ids"):
        engine.encode([999])


def test_encode_rejects_non_integer_tokens_and_stays_usable(tiny_model):
    # no cast to ids: 1.7 is not token 1, True not token 1, '3' not token 3
    engine = make_engine(tiny_model)
    for tokens, dtype in (([1.7], "float64"), ([True], "bool"), (["3"], "<U1"),
                          (np.array([1.0, 2.0]), "float64")):
        with pytest.raises(ValueError, match=f"integers, got dtype {dtype}"):
            engine.encode(tokens)
    assert engine.layout is None and len(engine.trace) == 0
    toks = random_tokens(40)
    np.testing.assert_array_equal(engine.encode(toks), make_engine(tiny_model).encode(toks))


def test_encode_accepts_integer_tokens_of_any_width(tiny_model):
    toks = random_tokens(40)
    expected = make_engine(tiny_model).encode(toks.tolist())
    for dtype in (np.int32, np.uint8, np.int64):
        got = make_engine(tiny_model).encode(toks.astype(dtype))
        np.testing.assert_array_equal(got, expected)


def test_token_sequence_input(tiny_model):
    from chunkattn import TokenSequence

    toks = random_tokens(50)
    a = make_engine(tiny_model).encode(TokenSequence(tuple(int(t) for t in toks)))
    b = make_engine(tiny_model).encode(toks)
    np.testing.assert_array_equal(a, b)


def spy_selection(monkeypatch, model):
    """Wrap `chunkattn.engine.select` and the model's `project_heads`; the
    returned list gains (layer, scores, last, ids) for every `select` call,
    layer being the one whose heads were projected last."""
    import chunkattn.engine as engine_module

    select, project = engine_module.select, model.project_heads
    current, calls = [], []

    def projecting(layer, x):
        current[:] = [layer]
        return project(layer, x)

    def selecting(scores, last, *args):
        ids = select(scores, last, *args)
        calls.append((current[0], scores, np.asarray(last), ids))
        return ids

    monkeypatch.setattr(model, "project_heads", projecting)
    monkeypatch.setattr(engine_module, "select", selecting)
    return calls


def selected_rows(calls):
    """{(token, layer): (scores (H, C), ids (H, width))} of every row the
    `spy_selection` calls selected, C being the row's own candidates. Each
    layer selects its tokens in order from 0, in encode and then decode."""
    rows, cursor = {}, {}
    for layer, scores, last, ids in calls:
        for t in range(len(last)):
            token = cursor.get(layer, 0)
            cursor[layer] = token + 1
            rows[token, layer] = (scores[:, t, : max(last[t] - 1, 0)], ids[:, t])
    return rows


def traced_picks(trace):
    """{(step, layer, head): the selected ids} of every row of a trace."""
    columns = (np.asarray(col).tolist() for col in (trace.step, trace.layer, trace.head))
    return {(s, la, h): tuple(c[:w]) for s, la, h, w, c in zip(
        *columns, trace.width.tolist(), trace.chunk_ids.tolist())}


def near_ties(scores, width, policy):
    """(H,) flags of the heads whose picks from `scores` (H, C) have a gap
    of at most 1e-9 at the cut; head 0's flag for all under fix-head."""
    C = scores.shape[1]
    take = width - (1 if policy == "no-first" else 2)  # C > 0: chunk 0 is not last
    if not 0 < take < C:
        return np.zeros(len(scores), dtype=bool)
    ranked = -np.sort(-scores, axis=-1)
    tied = ranked[:, take - 1] - ranked[:, take] <= 1e-9
    return np.broadcast_to(tied[0], tied.shape) if "head" in policy else tied


@pytest.mark.parametrize("policy", POLICIES)
def test_scored_rows_agree_between_prefill_and_decode(policy, monkeypatch):
    # Every token's selection passes `select` the same scores, within
    # 1e-12, whether the token was encoded or decoded, and picks the same
    # chunks unless either run has a near tie at the cut. Such ties occur:
    # greedy decoding repeats chunks, whose summaries then tie to within
    # rounding, and a row projected alone in decode rounds differently
    # from the same row in a prefill block (24 rows under
    # fix-head-and-layer here).
    model = build_model(ModelConfig.create(
        n_layers=2, n_heads=4, d_head=16, vocab_size=64, pretrain_length=1024, seed=7))
    L, H = model.config.n_layers, model.config.n_heads
    l, k, short, steps = 8, 4, 12, 60
    calls = spy_selection(monkeypatch, model)
    decoded = make_engine(model, l=l, k=k, policy=policy, seed=7)
    decoded.encode(random_tokens(short))
    tokens = np.concatenate([random_tokens(short), decoded.generate(steps).tokens])
    decoded_rows = selected_rows(calls)
    calls.clear()
    prefilled = make_engine(model, l=l, k=k, policy=policy, seed=7)
    prefilled.encode(tokens)
    prefilled_rows = selected_rows(calls)
    shares_layers = policy in ("fix-layer", "fix-head-and-layer")
    assert prefilled_rows.keys() == decoded_rows.keys()
    assert len(prefilled_rows) == len(tokens) * (1 if shares_layers else L)
    ranks = policy not in ("last-k", "random")
    tied = {}
    for (token, layer), (scores, ids) in prefilled_rows.items():
        other, _ = decoded_rows[token, layer]
        assert scores.shape == other.shape == (H, max(token // l - 2, 0) if ranks else 0)
        np.testing.assert_allclose(scores, other, rtol=0, atol=1e-12)
        width = ids.shape[1]
        tied[token, layer] = near_ties(scores, width, policy) | near_ties(other, width, policy)
    picks = [traced_picks(engine.trace) for engine in (prefilled, decoded)]
    assert picks[0].keys() == picks[1].keys()
    assert len(picks[0]) == len(tokens) * L * H
    differ = [key for key in picks[0] if picks[0][key] != picks[1][key]]
    for token, layer, head in differ:
        assert tied[token, 0 if shares_layers else layer][head], (token, layer, head)
    assert len(differ) < 0.15 * len(picks[0])
    if not ranks:
        assert differ == []


@pytest.mark.parametrize("policy", ["top-k", "no-first"])
def test_recorded_encode_scores_match_per_head_products(tiny_model, policy, monkeypatch):
    # Each encode group is scored straight into one array, which goes to
    # `select`. Every row must match its head's own reprs[h, 1:c-1] @ q
    # and hold -inf past it, and wherever the reference has no near tie at
    # the cut, the group must pick the reference's top chunks.
    import chunkattn.engine as engine_module
    from chunkattn.selection import rank_top

    l, k, n = 8, 4, 8 * 90 + 5  # up to 87 candidates: both rank_top paths
    H = tiny_model.config.n_heads
    engine = make_engine(tiny_model, l=l, k=k, policy=policy)
    select, project = engine_module.select, tiny_model.project_heads
    queries, calls = [], []

    def keeping_queries(layer, x):
        Q, K, V = project(layer, x)
        queries.append(Q)
        return Q, K, V

    def keeping(scores, last, *args):
        ids = select(scores, last, *args)
        calls.append((len(queries) - 1, scores, last, ids))
        return ids

    monkeypatch.setattr(tiny_model, "project_heads", keeping_queries)
    monkeypatch.setattr(engine_module, "select", keeping)
    engine.encode(random_tokens(n))
    bounds = engine.layout.bounds
    assert sum(len(last) for *_, last, _ in calls) == 2 * n
    assert max(len(set(last.tolist())) for *_, last, _ in calls) > 1
    checked = total = 0
    for layer, group_scores, last, group_ids in calls:
        cands = engine.store.layer_reprs(layer)[:, 1:]
        row = 0
        for c in range(last[0] + 1, last[-1] + 2):
            start, end = bounds[c]
            l_c, C = end - start, max(c - 2, 0)
            assert (last[row : row + l_c] == c - 1).all()
            q_blk = queries[layer][:, start:end]
            ids, scores = group_ids[:, row : row + l_c], group_scores[:, row : row + l_c]
            row += l_c
            assert (scores[..., C:] == -np.inf).all()
            ref = np.array([[cands[h, :C] @ q for q in q_blk[h]] for h in range(H)])
            ref = ref.reshape(H, l_c, C)
            assert np.abs(scores[..., :C] - ref).max(initial=0.0) <= 1e-12
            if c == 0:
                assert ids.shape == (H, l_c, 0)
                continue
            mandatory = [c - 1] if policy == "no-first" else sorted({0, c - 1})
            take = engine_module.selection_widths(c - 1, k, policy) - len(mandatory)
            picked = np.arange(1, c - 1)[rank_top(ref, take)]
            expected = np.sort(np.concatenate(
                [picked, np.broadcast_to(mandatory, (H, l_c, len(mandatory)))], axis=-1), axis=-1)
            ranked = -np.sort(-ref, axis=-1)
            margin = (ranked[..., take - 1] - ranked[..., take] if 0 < take < C
                      else np.full((H, l_c), np.inf))
            clear = margin > 1e-9
            np.testing.assert_array_equal(ids[clear], expected[clear])
            checked, total = checked + clear.sum(), total + clear.size
        assert row == len(last)
    assert checked > 0.99 * total


def test_encode_uses_store_sealing(tiny_model):
    engine = make_engine(tiny_model, l=32, k=4)
    engine.encode(random_tokens(100))
    assert engine.store.sealed_count(0) == 3
    assert engine.store.recent_len(0) == 4
    engine.generate(28)
    assert engine.store.sealed_count(0) == 4
    assert engine.store.recent_len(0) == 0


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


@pytest.mark.parametrize("policy", POLICIES)
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


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    l=st.sampled_from([8, 16]),
    k=st.integers(2, 5),
    extra=st.integers(1, 400),
    seed=st.integers(0, 1000),
)
def test_prefill_matches_one_decode_step_for_any_length(tiny_model, policy, l, k, extra, seed):
    # n > k*l: the prefill's last chunk selects k chunks, filling every slot
    n = k * l + extra
    toks = random_tokens(n + 1, seed=seed)
    engine = make_engine(tiny_model, l=l, k=k, policy=policy)
    engine.encode(toks[:n])
    toks[n] = int(np.argmax(engine.last_logits))
    engine.generate(1)
    prefill = make_engine(tiny_model, l=l, k=k, policy=policy).encode(toks)[-1]
    assert np.max(np.abs(engine.last_logits - prefill)) < 1e-12


@pytest.mark.parametrize("policy", POLICIES)
def test_encode_rotates_each_chunk_once_per_slot(tiny_config, policy):
    model = build_model(tiny_config)
    rotate = model.rope.apply
    rows = []

    def counting_apply(states, positions):
        # rotated rows: each row of `states` once per slot of `positions`
        slots = np.asarray(positions).size // np.asarray(states).shape[-2]
        rows.append(np.asarray(states).size // model.config.d_head * slots)
        return rotate(states, positions)

    model.rope.apply = counting_apply
    L, H = tiny_config.n_layers, tiny_config.n_heads
    l, k = 16, 4
    for n in (9 * l, 9 * l + 5):  # m = 9 and 10 chunks, both > k
        rows.clear()
        engine = make_engine(model, l=l, k=k, policy=policy)
        engine.encode(random_tokens(n))
        # every key once at its in-chunk offset, and each (token, head)'s
        # query once per selected chunk plus once for its own chunk
        assert len(engine.trace) == L * H * n
        assert sum(rows) == L * H * n + int((engine.trace.width + 1).sum())
        assert sum(rows) < L * H * (k + 2) * n


@pytest.mark.parametrize("l", [8, 16, 32])
def test_decode_rotates_queries_per_slot_not_gathered_keys(tiny_config, l):
    model = build_model(tiny_config)
    rotate = model.rope.apply
    rows = []

    def counting_apply(states, positions):
        out = rotate(states, positions)
        rows.append(out.size // model.config.d_head)  # rows rotated, not rows passed
        return out

    model.rope.apply = counting_apply
    L, H = tiny_config.n_layers, tiny_config.n_heads
    k, n = 4, 6 * 32 + 3
    engine = make_engine(model, l=l, k=k, policy="top-k", residency="offload")
    engine.encode(random_tokens(n))
    for _ in range(2 * l):  # crosses a seal
        rows.clear()
        before = len(engine.trace)
        engine.generate(1)
        widths = engine.trace.width[before:]
        # per (layer, head): the query and the token's key once per slot,
        # the own chunk's included; never the k*l + recent gathered rows
        assert sum(rows) == int((2 * (widths + 1)).sum()) == L * H * 2 * (k + 1)
        assert 2 * (k + 1) < k * l


@pytest.mark.parametrize("residency,budget", [("hot", None), ("offload", None), ("budget", 80)])
def test_sealed_slabs_hold_keys_rotated_by_their_offset(tiny_model, residency, budget):
    import chunkattn.cache as cache_module

    L, H = tiny_model.config.n_layers, tiny_model.config.n_heads
    l, n, steps = 16, 5 * 16 + 9, 30  # decode seals chunks 5 and 6
    engine = make_engine(tiny_model, l=l, k=4, residency=residency, budget=budget)
    store = engine.store
    appended = {(layer, head): [] for layer in range(L) for head in range(H)}
    bulk_append, append_token = store.bulk_append, store.append_token

    def recording_bulk(layer, Q, K, V, K_rot):
        for head in range(H):
            appended[layer, head].extend(zip(Q[head], K[head], V[head]))
        return bulk_append(layer, Q, K, V, K_rot)

    def recording_token(layer, q, k, v, k_rot):
        for head in range(H):
            appended[layer, head].append((q[head], k[head], v[head]))
        return append_token(layer, q, k, v, k_rot)

    store.bulk_append, store.append_token = recording_bulk, recording_token
    engine.encode(random_tokens(n))
    engine.generate(steps)
    m = (n + steps) // l
    for (layer, head), rows in appended.items():
        Q, K, V = (np.array(a)[: m * l].reshape(m, l, -1) for a in zip(*rows))
        assert store.sealed_count(layer) == m
        for cid in range(m):
            k_slab, v_slab = store._K[cid, layer, head], store._V[cid, layer, head]
            np.testing.assert_array_equal(k_slab, tiny_model.rope.apply(K[cid], np.arange(l)))
            np.testing.assert_array_equal(v_slab, V[cid])
        # summaries stay position-free: built from the unrotated rows
        np.testing.assert_array_equal(
            store.layer_reprs(layer)[head], cache_module.build_chunk_repr(0, Q, K, V)
        )


def test_non_finite_logits_mark_the_engine_failed(tiny_config):
    model = build_model(tiny_config)
    toks = random_tokens(40)
    engine = make_engine(model, l=16, k=4)
    engine.encode(toks)
    bad = int(np.argmax(engine.last_logits))  # the token decode feeds next
    assert bad not in toks
    embed = model.embed.copy()
    embed[bad] = np.inf
    broken = HostModel(model.config, embed, model.layers, model.w_out)

    with np.errstate(invalid="ignore"):
        engine = make_engine(broken, l=16, k=4)
        engine.encode(toks)
        with pytest.raises(FloatingPointError, match="non-finite logits at decode step 40"):
            engine.generate(2)
        with pytest.raises(RuntimeError, match="decode step 40 raised FloatingPointError"):
            engine.generate(1)

        engine = make_engine(broken, l=16, k=4)
        with pytest.raises(FloatingPointError, match="non-finite logits in encode of 41 tokens"):
            engine.encode(np.append(toks, bad))
        with pytest.raises(RuntimeError, match="encode of 41 tokens raised FloatingPointError"):
            engine.generate(1)


@pytest.mark.parametrize("policy", POLICIES)
def test_decode_selects_remaps_and_gathers_once_per_layer(tiny_model, policy, monkeypatch):
    import chunkattn.engine as engine_module

    calls = {"select": 0, "remap": 0, "gather": 0}
    shapes, columns = [], set()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if name == "select":
                columns.add(args[0].shape[-1])
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(engine_module, "select", counting("select", engine_module.select))
    monkeypatch.setattr(engine_module, "remap", counting("remap", engine_module.remap))
    L, H = tiny_model.config.n_layers, tiny_model.config.n_heads
    l, k, n = 16, 4, 9 * 16 + 5  # 9 sealed chunks > k, so every head picks k
    engine = make_engine(tiny_model, l=l, k=k, policy=policy, residency="offload")
    engine.encode(random_tokens(n))
    # Encode selects once per selection block; at this size each group
    # selects in one block. Under layer sharing, layers >= 1 reuse layer 0's.
    widths = [engine_module.selection_widths(c - 1, k, policy) for c in range(engine.layout.m)]
    groups = len(list(engine_module._encode_groups(engine.layout.bounds, widths, l)))
    selecting = 1 if policy in ("fix-layer", "fix-head-and-layer") else L
    assert calls["select"] == groups * selecting
    gather = counting("gather", engine.store.gather)

    def gather_recording_shape(*args, **kwargs):
        rows = gather(*args, **kwargs)
        shapes.append(tuple(a.shape for a in rows))
        return rows

    engine.store.gather = gather_recording_shape
    for step in range(n, n + 14):  # crosses the seal at 160
        calls.update(select=0, remap=0, gather=0)
        shapes.clear()
        engine.generate(1)
        # decode too selects at layer 0 only under layer sharing
        assert calls == {"select": selecting, "remap": L, "gather": L}
        d = tiny_model.config.d_head
        assert shapes == [((H, k, l, d),) * 2 + ((H, step % l, d),) * 2] * L
        assert engine._layer0_ids == {}  # layer 0's ids are kept for one step
    if policy in ("last-k", "random"):  # neither phase scores
        assert columns == {0}
    else:
        assert max(columns) > 0


def test_failed_decode_step_leaves_engine_unusable(tiny_config):
    model = build_model(tiny_config)
    engine = make_engine(model, l=16, k=4)
    engine.encode(random_tokens(100))
    engine.generate(2)
    mlp = model.mlp
    failures = []

    def mlp_failing_once_in_layer_1(layer, h):
        if layer == 1 and not failures:
            failures.append(layer)
            raise FloatingPointError("injected")
        return mlp(layer, h)

    model.mlp = mlp_failing_once_in_layer_1
    with pytest.raises(FloatingPointError):
        engine.generate(3)
    # layer 0 stored step 102's K/V before layer 1 failed: the store is ahead
    assert engine.store.recent_len(0) == engine.store.recent_len(1) + 1
    assert engine.layout.n == 102
    with pytest.raises(RuntimeError, match="decode step 102"):
        engine.generate(1)
    with pytest.raises(RuntimeError, match="decode step 102"):
        engine.encode(random_tokens(10))


def test_failed_encode_leaves_engine_unusable(tiny_config):
    model = build_model(tiny_config)
    engine = make_engine(model, l=16, k=4)
    mlp = model.mlp

    def mlp_failing_in_layer_1(layer, h):
        if layer == 1:
            raise FloatingPointError("injected")
        return mlp(layer, h)

    model.mlp = mlp_failing_in_layer_1
    with pytest.raises(FloatingPointError):
        engine.encode(random_tokens(300))
    # layer 0 filled the store and the trace before layer 1 failed
    assert engine.store.sealed_count(0) == 300 // 16
    model.mlp = mlp
    with pytest.raises(RuntimeError, match="encode of 300 tokens raised FloatingPointError"):
        engine.encode(random_tokens(300))
    with pytest.raises(RuntimeError, match="encode of 300 tokens raised FloatingPointError"):
        engine.generate(1)


def test_encode_builds_chunk_reprs_once_per_layer_and_head(tiny_model, monkeypatch):
    import chunkattn.cache as cache_module

    batches = []

    def recording(first, Q, K, V):
        batches.append((first, Q.shape))
        return build_chunk_repr(first, Q, K, V)

    build_chunk_repr = cache_module.build_chunk_repr
    monkeypatch.setattr(cache_module, "build_chunk_repr", recording)
    L, H, d = tiny_model.config.n_layers, tiny_model.config.n_heads, tiny_model.config.d_head
    l, n = 16, 9 * 16 + 13
    engine = make_engine(tiny_model, l=l, k=4)
    engine.encode(random_tokens(n))
    # H * 9 * 16 rows fit one DENSE_BLOCK_ROWS block, so one batch holds
    # every complete chunk of every head of a layer
    assert batches == [(0, (H, 9, l, d))] * L
    appends = []
    append_token = engine.store.append_token

    def counting_append(layer, *rows):
        appends.append(layer)
        return append_token(layer, *rows)

    engine.store.append_token = counting_append
    for step in range(3):  # the third token seals chunk 9 on every (layer, head)
        batches.clear()
        appends.clear()
        engine.generate(1)
        # each layer appends once for all heads, and seals them in one batch
        assert appends == list(range(L))
        assert batches == ([(9, (H, 1, l, d))] * L if step == 2 else [])


def test_engines_sharing_a_model_run_as_if_alone(tiny_config, tmp_path):
    # two engines of different configs interleave encode and decode on one
    # model; each must produce exactly what it produces when run alone
    model = build_model(tiny_config)
    steps = 12  # crosses a seal for both chunk sizes
    specs = {
        "a": (
            dict(l=16, k=4, policy="top-k", residency="offload"),
            random_tokens(300, seed=1),
        ),
        "b": (
            dict(l=32, k=3, policy="random", seed=5, residency="budget", budget=128),
            random_tokens(150, seed=2),
        ),
    }

    def start(name):
        kw, toks = specs[name]
        engine = make_engine(model, **kw)
        return engine, [engine.encode(toks)], []

    def step(run):
        engine, logits, tokens = run
        tokens.extend(engine.generate(1).tokens)
        logits.append(engine.last_logits)

    def outputs(run, path):
        engine, logits, tokens = run
        engine.trace.to_json(path)
        return tokens, [a.tobytes() for a in logits], engine.counters_dict(), path.read_bytes()

    alone = {}
    for name in specs:
        run = start(name)
        for _ in range(steps):
            step(run)
        alone[name] = outputs(run, tmp_path / f"{name}-alone.json")

    runs = {name: start(name) for name in specs}
    for _ in range(steps):
        for name in specs:
            step(runs[name])
    for name in specs:
        assert outputs(runs[name], tmp_path / f"{name}-shared.json") == alone[name]


@pytest.fixture(scope="module")
def wide_model():
    # room for k = 8 chunks of l = 64 plus the own chunk in the rotary table
    return build_model(ModelConfig.create(
        n_layers=2, n_heads=4, d_head=8, vocab_size=64, pretrain_length=1024, seed=7))


@pytest.mark.parametrize("policy", ["top-k", "no-first", "fix-head"])
def test_encode_groups_rank_past_64_candidates_within_each_chunk(wide_model, policy, monkeypatch):
    # l = 16, k = 8: full chunks group by 8 and the last ones rank up to 82
    # candidates, so groups of many rows take rank_top's threshold path with
    # per-chunk column limits. Each row must hold its mandatory chunks plus
    # the stable-argsort top picks of its own scores (head 0's under
    # fix-head), as passed to `select`.
    l, k = 16, 8
    n = 16 * 84 + 5
    H = wide_model.config.n_heads
    calls = spy_selection(monkeypatch, wide_model)
    engine = make_engine(wide_model, l=l, k=k, policy=policy)
    engine.encode(random_tokens(n))
    rows, picks = selected_rows(calls), traced_picks(engine.trace)
    assert len(rows) == 2 * n
    assert len(picks) == 2 * n * H
    for (token, layer), (scores, _) in rows.items():
        c = token // l
        assert scores.shape == (H, max(c - 2, 0))
        if c == 0:
            assert all(picks[token, layer, head] == () for head in range(H))
            continue
        mandatory = {c - 1} if policy == "no-first" else {0, c - 1}
        take = min(k - len(mandatory), c - 2) if c > 1 else 0
        for head in range(H):
            ranked = scores[0 if policy == "fix-head" else head]
            top = np.argsort(-ranked, kind="stable")[:take] + 1
            assert picks[token, layer, head] == tuple(sorted(mandatory | set(top.tolist())))


def test_nan_query_ranks_only_its_own_chunks_in_a_group(wide_model, monkeypatch):
    # Token t opens chunk 16, the first of a group of 8 that ranks against
    # chunk 23's 21 candidates, 7 of them beyond chunk 16's own. A NaN query
    # makes every score of t's rows NaN: they must rank t's own candidates in
    # position order (NaN ranks last, and nothing past chunk 15 ranks at
    # all), and encode must then fail on the non-finite state.
    l, k, n, t = 16, 8, 16 * 40, 16 * 16
    H = wide_model.config.n_heads
    engine = make_engine(wide_model, l=l, k=k)
    project, bulk_append = wide_model.project_heads, engine.store.bulk_append

    def nan_query(layer, x):
        Q, K, V = project(layer, x)
        if layer == 0:
            Q[:, t] = np.nan
        return Q, K, V

    def clean_summaries(layer, Q, K, V, K_rot):
        # the chunk summaries stay finite, so that selection sees the NaN
        return bulk_append(layer, np.nan_to_num(Q), K, V, K_rot)

    import chunkattn.engine as engine_module

    select, lasts = engine_module.select, []

    def keeping_last(scores, last, *args):
        lasts.append(last)
        return select(scores, last, *args)

    monkeypatch.setattr(wide_model, "project_heads", nan_query)
    monkeypatch.setattr(engine.store, "bulk_append", clean_summaries)
    monkeypatch.setattr(engine_module, "select", keeping_last)
    with pytest.raises(FloatingPointError):
        engine.encode(random_tokens(n))
    widths = [engine_module.selection_widths(c - 1, k, "top-k") for c in range(engine.layout.m)]
    assert (16, 24) in engine_module._encode_groups(engine.layout.bounds, widths, l)
    # chunks 16..23 select in one call, over rows whose last runs 15..22
    assert any(np.array_equal(last, np.repeat(np.arange(15, 23), l)) for last in lasts)
    trace = engine.trace
    rows = (np.asarray(trace.layer) == 0) & (np.asarray(trace.step) == t)
    assert rows.sum() == H
    c = t // l
    for ids in trace.chunk_ids[rows]:
        assert ids.max() <= c - 1
        assert ids.tolist() == [0, 1, 2, 3, 4, 5, 6, c - 1]


@pytest.mark.parametrize("policy", POLICIES)
def test_encode_layouts_agree_for_every_policy(wide_model, policy, monkeypatch, tmp_path):
    import chunkattn.engine as engine_module

    # full chunks group by 8; decode crosses the seal at 336
    l, k, n, steps = 16, 8, 20 * 16 + 9, 60
    default = engine_module.GROUP_READ_ROWS

    def run(group_read_rows, select_block_scores=engine_module.SELECT_BLOCK_SCORES):
        monkeypatch.setattr(engine_module, "GROUP_READ_ROWS", group_read_rows)
        monkeypatch.setattr(engine_module, "SELECT_BLOCK_SCORES", select_block_scores)
        engine = make_engine(wide_model, l=l, k=k, policy=policy, residency="budget",
                             budget=(k + 1) * l)
        logits = engine.encode(random_tokens(n))
        tokens = engine.generate(steps).tokens
        path = tmp_path / f"trace-{group_read_rows}.json"
        engine.trace.to_json(path)
        ints = (tokens, path.read_bytes(), engine.counters_dict(), engine.store.peak_hot_tokens)
        return ints, logits, engine.last_logits

    chunk_by_chunk, grouped = run(1), run(default)
    assert chunk_by_chunk[0] == grouped[0]
    for a, b in zip(chunk_by_chunk[1:], grouped[1:]):
        assert np.abs(a - b).max() < 1e-12
    # whole groups attend, but select a chunk at a time
    selected_by_chunk = run(default, select_block_scores=1)
    assert selected_by_chunk[0] == grouped[0]
    for a, b in zip(selected_by_chunk[1:], grouped[1:]):
        assert np.array_equal(a, b)


def spy_on_attend(monkeypatch) -> list:
    """Route the engine's `attend` through a spy that records each call's
    (q shape, pages) in the returned list."""
    import chunkattn.engine as engine_module

    attend = engine_module.attend
    calls = []

    def spying(q, k, v, mask=None, pages=None):
        calls.append((q.shape, pages))
        return attend(q, k, v, mask, pages)

    monkeypatch.setattr(engine_module, "attend", spying)
    return calls


@pytest.mark.parametrize("l", [16, 64])
def test_encode_attends_each_chunk_group_in_one_paged_call(wide_model, l, monkeypatch):
    import chunkattn.engine as engine_module

    calls = spy_on_attend(monkeypatch)
    L, H, d = wide_model.config.n_layers, wide_model.config.n_heads, wide_model.config.d_head
    # at l = 16, twelve chunks of width k = 8 make a full group and a short one
    k = 8
    n = (20 if l == 16 else 11) * l + 9
    engine = make_engine(wide_model, l=l, k=k)
    encode_layer = engine._encode_layer
    layer_calls = []

    def counting(layer, *args):
        before = len(calls)
        out = encode_layer(layer, *args)
        layer_calls.append(len(calls) - before)
        return out

    engine._encode_layer = counting
    engine.encode(random_tokens(n))
    trace, store = engine.trace, engine.store
    sels = iter(calls)
    group_sizes = set()
    for layer in range(L):
        sealed = store.sealed_count(layer)
        slab_k = store._K[:sealed, layer].swapaxes(0, 1)
        slab_v = store._V[:sealed, layer].swapaxes(0, 1)
        blocks = []
        for start in range(0, n, l):
            rows = (trace.layer == layer) & (trace.step >= start) & (trace.step < start + l)
            l_c, n_sel = int(rows.sum()) // H, int(trace.width[rows][0])
            ids = np.stack([trace.chunk_ids[rows & (trace.head == h)][:, :n_sel] for h in range(H)])
            blocks.append((l_c, n_sel, ids))
        groups = c = 0
        while c < len(blocks):
            # one call for every head of a group of consecutive chunks of one
            # length and width, as many as GROUP_READ_ROWS allows
            l_c, n_sel = blocks[c][:2]
            reads = l_c * n_sel * l
            q_shape, pages = next(sels)
            G = q_shape[1]
            group_sizes.add(G)
            assert q_shape == (H, G, l_c, d) and len(pages) == 4
            assert all(b[:2] == (l_c, n_sel) for b in blocks[c : c + G])
            assert G == 1 or G * reads <= engine_module.GROUP_READ_ROWS
            if c + G < len(blocks):
                assert (blocks[c + G][:2] != (l_c, n_sel)
                        or (G + 1) * reads > engine_module.GROUP_READ_ROWS)
            group_ids = np.concatenate([b[2] for b in blocks[c : c + G]], axis=1)
            q_pages, k_pages, v_pages, read_at = pages
            assert isinstance(read_at, np.ndarray) and read_at.shape == (H, G, l_c, n_sel)
            page = read_at.reshape(H, G * l_c, n_sel) // q_pages.shape[1]
            # each read's page holds the store's slab of the chunk it reads
            # (keys transposed, (P, d, l), and C-contiguous)
            assert k_pages.flags.c_contiguous
            for h in range(H):
                np.testing.assert_array_equal(
                    k_pages[page[h]], slab_k[h][group_ids[h]].swapaxes(-1, -2))
                np.testing.assert_array_equal(v_pages[page[h]], slab_v[h][group_ids[h]])
            assert np.unique(page).size == k_pages.shape[0] == v_pages.shape[0]
            groups += 1
            c += G
        assert layer_calls[layer] == groups
    assert next(sels, None) is None
    if l == 16:
        # full chunks of k' = 8 read 2,048 rows each and group by 8
        assert engine_module.GROUP_READ_ROWS // (l * k * l) in group_sizes
    else:
        # a full chunk reads 32,768 rows, more than a group's, and runs
        # alone; the shorter or narrower chunks each have a shape of their own
        assert group_sizes == {1}


@pytest.mark.parametrize("n", [9, 20 * 16 + 9])
def test_decode_attends_each_layer_in_one_identity_paged_call(wide_model, n, monkeypatch):
    # n = 9 decodes before the first seal, with no slots; n = 329 crosses
    # the seal at 336
    l, k = 16, 8
    L, H, d = wide_model.config.n_layers, wide_model.config.n_heads, wide_model.config.d_head
    engine = make_engine(wide_model, l=l, k=k)
    engine.encode(random_tokens(n))
    calls = spy_on_attend(monkeypatch)
    trace, store = engine.trace, engine.store
    for step in range(n, n + 10):
        calls.clear()
        engine.generate(1)
        assert len(calls) == L
        for layer, (q_shape, pages) in enumerate(calls):
            rows = (trace.step == step) & (trace.layer == layer)
            width = int(trace.width[rows][0])
            ids = np.stack([trace.chunk_ids[rows & (trace.head == h)][0, :width]
                            for h in range(H)])
            q_pages, k_pages, v_pages, read_at = pages
            assert q_shape == (H, 1, d) and read_at is None
            assert q_pages.shape == (H, 1, width, 1, d)
            slab_k, slab_v = store._K[:, layer].swapaxes(0, 1), store._V[:, layer].swapaxes(0, 1)
            for h in range(H):
                np.testing.assert_array_equal(k_pages[h, 0], slab_k[h][ids[h]].swapaxes(-1, -2))
                np.testing.assert_array_equal(v_pages[h, 0], slab_v[h][ids[h]])


@pytest.mark.parametrize("policy", POLICIES)
def test_dense_block_size_leaves_outputs_unchanged(wide_model, policy, monkeypatch, tmp_path):
    import chunkattn.model as model_module

    # 218 = 31 * 7 + 1 rows, so the one-row tail joins the block before it;
    # the last chunk is partial and decode crosses the seal at 224. Block
    # 4 * H * l summarizes the 13 complete chunks of all H heads in batches
    # of 4, 4, 4 and 1.
    l, k, n, steps = 16, 4, 13 * 16 + 10, 20
    H = wide_model.config.n_heads

    def run(block, residency, budget):
        monkeypatch.setattr(model_module, "DENSE_BLOCK_ROWS", block)
        engine = make_engine(wide_model, l=l, k=k, policy=policy, residency=residency,
                             budget=budget)
        logits = engine.encode(random_tokens(n))
        tokens = engine.generate(steps).tokens
        path = tmp_path / f"trace-{block}.json"
        engine.trace.to_json(path)
        return (tokens, path.read_bytes(), engine.counters_dict(), engine.store.peak_hot_tokens,
                logits.tobytes(), engine.last_logits.tobytes())

    for residency, budget in [("hot", None), ("offload", None), ("budget", (k + 1) * l)]:
        whole = run(n, residency, budget)
        for block in (7, 4 * H * l):
            assert run(block, residency, budget) == whole
