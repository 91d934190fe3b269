import numpy as np
import pytest

from chunkattn import ModelConfig, build_model, full_attention_forward
from chunkattn.model import (
    PAGE_ROWS,
    RotaryTable,
    attend,
    causal_mask,
    page_table,
    rms_norm,
    softmax,
)

from conftest import random_tokens


def same_weights(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a._weight_arrays(), b._weight_arrays()))


def test_build_is_deterministic(tiny_config):
    a = build_model(tiny_config)
    b = build_model(tiny_config)
    assert same_weights(a, b)


def test_different_seed_different_weights(tiny_config):
    other = ModelConfig.create(
        n_layers=2, n_heads=4, d_head=8, vocab_size=64, pretrain_length=512, seed=8
    )
    assert not same_weights(build_model(tiny_config), build_model(other))


def test_weights_are_frozen(tiny_model):
    with pytest.raises(ValueError):
        tiny_model.embed[0, 0] = 1.0


def test_project_qkv_shapes(tiny_model):
    hidden = np.random.default_rng(0).normal(size=(10, tiny_model.config.d_model))
    Q, K, V = tiny_model.project_heads(0, hidden)
    for states in (Q, K, V):
        assert states.shape == (4, 10, 8)


def test_project_qkv_zero_hidden(tiny_model):
    hidden = np.zeros((5, tiny_model.config.d_model))
    for states in tiny_model.project_heads(1, hidden):
        assert np.all(states == 0)


def test_project_qkv_single_token(tiny_model):
    hidden = np.ones((1, tiny_model.config.d_model))
    Q, K, V = tiny_model.project_heads(0, hidden)
    assert Q.shape == K.shape == V.shape == (4, 1, 8)


def test_project_heads_shape_mismatch(tiny_model):
    with pytest.raises(ValueError):
        tiny_model.project_heads(0, np.zeros((4, 7)))
    with pytest.raises(ValueError):
        tiny_model.project_heads(99, np.zeros((4, tiny_model.config.d_model)))


def test_rotary_position_zero_is_identity():
    table = RotaryTable(d_head=8, max_positions=64)
    rows = np.random.default_rng(1).normal(size=(3, 8))
    out = table.apply(rows, np.zeros(3, dtype=int))
    np.testing.assert_array_equal(out, rows)


def test_rotary_relative_shift_invariance():
    table = RotaryTable(d_head=16, max_positions=256)
    rng = np.random.default_rng(2)
    q = rng.normal(size=(1, 16))
    k = rng.normal(size=(1, 16))
    base = (table.apply(q, [37]) @ table.apply(k, [11]).T).item()
    for shift in (1, 50, 200):
        shifted = (table.apply(q, [37 + shift]) @ table.apply(k, [11 + shift]).T).item()
        assert shifted == pytest.approx(base, abs=1e-6)


def test_rotary_rejects_out_of_table_position():
    table = RotaryTable(d_head=8, max_positions=64)
    rows = np.zeros((1, 8))
    with pytest.raises(ValueError, match="outside the rotary table"):
        table.apply(rows, [64])
    with pytest.raises(ValueError, match="negative"):
        table.apply(rows, [-1])


def test_rotary_length_mismatch():
    table = RotaryTable(d_head=8, max_positions=64)
    with pytest.raises(ValueError):
        table.apply(np.zeros((3, 8)), [0, 1])


def test_rotary_slot_axis_is_bitwise_one_call_per_slot():
    # positions (S, t) rotate (..., t, d) rows into (..., S, t, d), each
    # slot exactly as a call with its own row of positions
    d, l = 8, 16
    table = RotaryTable(d_head=d, max_positions=8 * l)
    rng = np.random.default_rng(3)
    for lead, t, S in (((), 1, 1), ((), 5, 1), ((2,), 1, 4), ((3, 2), l, 5), ((4, 2), 9, 3)):
        states = rng.normal(size=lead + (t, d)) * 10.0 ** rng.uniform(-3, 3)
        # slot s of row j at (S - 1 - s)*l + j, as encode lays out a chunk of
        # t tokens; t = 9 < l is a partial last chunk
        positions = np.arange(S - 1, -1, -1)[:, None] * l + np.arange(t)
        out = table.apply(states, positions)
        assert out.shape == lead + (S, t, d)
        for s in range(S):
            np.testing.assert_array_equal(out[..., s, :, :], table.apply(states, positions[s]))


def test_rotary_slot_axis_checks_every_position():
    table = RotaryTable(d_head=8, max_positions=64)
    rows = np.zeros((2, 3, 8))
    with pytest.raises(ValueError, match="outside the rotary table"):
        table.apply(rows, [[0, 1, 2], [3, 64, 5]])
    with pytest.raises(ValueError, match="negative"):
        table.apply(rows, [[0, 1, 2], [3, 4, -1]])
    with pytest.raises(ValueError, match="does not match"):
        table.apply(rows, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="does not match"):
        table.apply(rows, np.zeros((1, 2, 3), dtype=int))
    # empty positions give an empty result of the broadcast shape
    assert table.apply(rows, np.zeros((0, 3), dtype=int)).shape == (2, 0, 3, 8)
    assert table.apply(np.zeros((2, 0, 8)), np.zeros((4, 0), dtype=int)).shape == (2, 4, 0, 8)
    assert table.apply(np.zeros((2, 0, 8)), []).shape == (2, 0, 8)


def test_rotary_slot_axis_leaves_states_unchanged():
    table = RotaryTable(d_head=8, max_positions=64)
    states = np.random.default_rng(4).normal(size=(2, 5, 8))
    before = states.copy()
    states.flags.writeable = False  # a write in place raises
    out = table.apply(states, np.arange(15).reshape(3, 5))
    np.testing.assert_array_equal(states, before)
    out[...] = 0.0  # a new array, not a view of states
    np.testing.assert_array_equal(states, before)


def test_full_attention_single_token(tiny_model):
    logits = full_attention_forward(tiny_model, [3])
    assert logits.shape == (1, tiny_model.config.vocab_size)
    again = full_attention_forward(tiny_model, [3])
    np.testing.assert_array_equal(logits, again)


def test_full_attention_length_boundary(tiny_model):
    n = tiny_model.config.pretrain_length
    logits = full_attention_forward(tiny_model, random_tokens(n))
    assert logits.shape == (n, 64)
    with pytest.raises(ValueError, match="exceeds pretrain length"):
        full_attention_forward(tiny_model, random_tokens(n + 1))


def test_full_attention_deterministic(tiny_model):
    toks = random_tokens(100)
    a = full_attention_forward(tiny_model, toks)
    b = full_attention_forward(tiny_model, toks)
    np.testing.assert_array_equal(a, b)


def test_full_attention_blocked_matches_unblocked(tiny_model):
    toks = random_tokens(150)
    whole = full_attention_forward(tiny_model, toks, block_size=1024)
    blocked = full_attention_forward(tiny_model, toks, block_size=32)
    np.testing.assert_allclose(blocked, whole, atol=1e-12)


def test_full_attention_steps_through_its_cache(tiny_model):
    # one call over n tokens against a prefix call, then one call per token
    n, prefix = 90, 70
    toks = random_tokens(n)
    whole = full_attention_forward(tiny_model, toks)
    cache = []
    parts = [full_attention_forward(tiny_model, toks[:prefix], cache=cache)]
    for token in toks[prefix:]:
        parts.append(full_attention_forward(tiny_model, [token], cache=cache))
    np.testing.assert_allclose(np.concatenate(parts), whole, atol=1e-12)
    cfg = tiny_model.config
    assert len(cache) == cfg.n_layers
    for k_rot, v in cache:
        assert k_rot.shape == v.shape == (cfg.n_heads, n, cfg.d_head)
    # the refusal counts the cached rows, and leaves the cache as it was
    room = cfg.pretrain_length - n
    with pytest.raises(ValueError, match="exceeds pretrain length"):
        full_attention_forward(tiny_model, random_tokens(room + 1), cache=cache)
    assert cache[0][0].shape[1] == n
    full_attention_forward(tiny_model, random_tokens(room), cache=cache)
    assert cache[0][0].shape[1] == cfg.pretrain_length


def test_full_attention_causality(tiny_model):
    toks = random_tokens(60)
    base = full_attention_forward(tiny_model, toks)
    perturbed = toks.copy()
    t = 40
    perturbed[t] = (perturbed[t] + 1) % 64
    changed = full_attention_forward(tiny_model, perturbed)
    np.testing.assert_array_equal(changed[:t], base[:t])
    assert not np.array_equal(changed[t], base[t])


def test_token_validation(tiny_model):
    with pytest.raises(ValueError, match="token ids"):
        full_attention_forward(tiny_model, [64])
    with pytest.raises(ValueError, match="empty"):
        full_attention_forward(tiny_model, [])


def test_rms_norm_of_zero_is_zero():
    np.testing.assert_array_equal(rms_norm(np.zeros((2, 4))), np.zeros((2, 4)))


def test_rms_norm_is_bitwise_the_mean_formula():
    rng = np.random.default_rng(3)
    shapes = [(1, 64), (2048, 64), (3, 5, 16), (7,)]
    shapes += [(int(rng.integers(1, 2049)), 64) for _ in range(40)]
    for shape in shapes:
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        expected = x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + 1e-6)
        np.testing.assert_array_equal(rms_norm(x), expected)


def test_rotary_query_per_slot_matches_rotated_keys():
    # R(P)q . R(s*l + r)k == R(P - s*l)q . R(r)k for every P and every key
    # position s*l + r <= P of the table
    T, d, l = 512, 16, 16
    table = RotaryTable(d_head=d, max_positions=T)
    rng = np.random.default_rng(4)
    q, k = rng.normal(size=(2, d))
    positions = np.arange(T)
    q_rot = table.apply(np.broadcast_to(q, (T, d)), positions)
    k_rot = table.apply(np.broadcast_to(k, (T, d)), positions)
    direct = q_rot @ k_rot.T
    P, b = np.meshgrid(positions, positions, indexing="ij")
    composed = np.einsum("ijd,ijd->ij", q_rot[np.maximum(P - b // l * l, 0)], k_rot[b % l])
    seen = b <= P
    assert np.abs(direct - composed)[seen].max() < 1e-12


def test_attend_without_slots_is_the_plain_formula():
    rng = np.random.default_rng(5)
    for t, n, d in ((1, 1, 4), (7, 7, 8), (3, 20, 16)):
        q, k, v = rng.normal(size=(t, d)), rng.normal(size=(n, d)), rng.normal(size=(n, d))
        for mask in (None, causal_mask(t, n, offset=n - t)):
            scores = q @ k.T / np.sqrt(d) + (0.0 if mask is None else mask)
            expected = softmax(scores) @ v
            np.testing.assert_array_equal(attend(q, k, v, mask), expected)
            # zero slots, in either page layout, normalise the same weights
            # the same way
            paged = (np.zeros((0, PAGE_ROWS, d)), np.zeros((0, d, 5)), np.zeros((0, 5, d)),
                     np.zeros((t, 0), dtype=np.intp))
            identity = (np.zeros((t, 0, 1, d)), np.zeros((t, 0, d, 5)), np.zeros((t, 0, 5, d)),
                        None)
            for pages in (paged, identity):
                np.testing.assert_array_equal(attend(q, k, v, mask, pages), expected)


def slot_reads(rng, lead, t, S, l, d, shared, rows, gain=1.0):
    """Slot reads of t queries as per-slot rows and as `attend` pages in
    both layouts. With `shared`, slot 0 of every query reads chunk 0 and
    the other slots pick from S + 1 more chunks; else every query reads S
    chunks that no other query reads, so each page holds one row. The slot
    queries are scaled by `gain`. Returns the per-slot (q_sel, k_sel,
    v_sel), of shapes (..., t, S, d) and (..., t, S, l, d), the pages of
    `rows` rows laid out by `page_table`, the identity-layout pages, the
    slabs read and the slab of each page."""
    if shared:
        C = S + 2
        rest = rng.random(lead + (t, C - 1)).argsort(-1)[..., : max(S - 1, 0)] + 1
        ids = np.concatenate([np.zeros(lead + (t, min(S, 1)), dtype=np.intp), rest], axis=-1)
    else:
        C = max(t * S, 1)
        ids = rng.random(lead + (C,)).argsort(-1)[..., : t * S].reshape(lead + (t, S))
    ids = np.sort(ids, axis=-1)
    chunks_k, chunks_v = rng.normal(size=(2,) + lead + (C, l, d)) * 3
    at = tuple(np.arange(n).reshape((n,) + (1,) * (len(lead) - i + 1)) for i, n in enumerate(lead))
    q_sel = rng.normal(size=lead + (t, S, d)) * gain
    per_slot = (q_sel, chunks_k[at + (ids,)], chunks_v[at + (ids,)])
    slabs = np.ravel_multi_index(at + (ids,), lead + (C,))
    page_slab, read_at = page_table(slabs, rows)
    q_pages = np.full((page_slab.size, rows, d), np.nan)  # rows no slot reads stay unread
    q_pages.reshape(-1, d)[read_at] = q_sel
    # page keys are transposed, (P, d, l)
    k_flat, v_flat = chunks_k.reshape(-1, l, d).swapaxes(-1, -2), chunks_v.reshape(-1, l, d)
    paged = (q_pages, k_flat[page_slab], v_flat[page_slab], read_at)
    identity = (q_sel[..., None, :], per_slot[1].swapaxes(-1, -2), per_slot[2], None)
    return per_slot, paged, identity, slabs, page_slab


def slot_cases(rng):
    """40 drawn and a grid of (lead, t, S, l, extra, d, shared, rows, gain)
    cases for `slot_reads`."""
    drawn = [
        (tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(0, 3))),
         int(rng.integers(1, 40)), int(rng.integers(0, 6)), int(rng.choice([1, 4, 16])),
         int(rng.integers(0, 20)), int(rng.choice([4, 8, 16])), bool(rng.random() < 0.5),
         int(rng.choice([1, 3, PAGE_ROWS])), float(rng.choice([1.0, 300.0])))
        for _ in range(40)
    ]
    # gain 300 makes scores of magnitude ~1e3, whose exponentials overflow
    # unless the max is subtracted before the softmax's division
    grid = [
        (lead, t, S, l, extra, 8, shared, rows, gain)
        for lead in ((), (3,))
        for t in (1, 5, 2 * PAGE_ROWS + 3)
        for S in (0, 1, 4)
        for l in (1, 8)
        for extra in (0, 7)
        for shared in (True, False)
        for rows, gain in ((PAGE_ROWS, 1.0), (PAGE_ROWS, 300.0), (1, 300.0), (3, 1.0))
    ]
    return drawn + grid


def test_attend_with_slots_matches_one_concatenated_softmax():
    rng = np.random.default_rng(8)
    for lead, t, S, l, extra, d, shared, rows, gain in slot_cases(rng):
        n = t + extra
        q = rng.normal(size=lead + (t, d)) * gain
        k, v = rng.normal(size=(2,) + lead + (n, d))
        mask = causal_mask(t, n, offset=extra) if rng.random() < 0.8 else None
        per_slot, paged, identity, _, _ = slot_reads(rng, lead, t, S, l, d, shared, rows, gain)
        # one softmax over the concatenated slot rows and own rows
        q_sel, k_sel, v_sel = per_slot
        s_sel = np.einsum("...tsd,...tsrd->...tsr", q_sel, k_sel).reshape(lead + (t, S * l))
        s_own = np.einsum("...td,...nd->...tn", q, k) + (0.0 if mask is None else mask)
        w = softmax(np.concatenate([s_sel, s_own], axis=-1) / np.sqrt(d))
        own = np.broadcast_to(v[..., None, :, :], lead + (t, n, d))
        rows_read = np.concatenate([v_sel.reshape(lead + (t, S * l, d)), own], axis=-2)
        expected = np.einsum("...tr,...trd->...td", w, rows_read)
        for pages in (paged, identity):
            out = attend(q, k, v, mask, pages)
            assert out.shape == expected.shape
            assert np.isfinite(out).all()
            assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_attend_paged_matches_per_slot_rows():
    # the shared-page layout against the identity layout, whose pages are
    # the per-slot rows, and the page table that lays the shared pages out
    rng = np.random.default_rng(6)
    for lead, t, S, l, extra, d, shared, rows, gain in slot_cases(rng):
        n = t + extra
        q = rng.normal(size=lead + (t, d)) * gain
        k, v = rng.normal(size=(2,) + lead + (n, d))
        mask = causal_mask(t, n, offset=extra) if rng.random() < 0.8 else None
        _, paged, identity, slabs, page_slab = slot_reads(
            rng, lead, t, S, l, d, shared, rows, gain)
        expected = attend(q, k, v, mask, identity)
        out = attend(q, k, v, mask, paged)
        assert out.shape == expected.shape
        assert np.isfinite(out).all()
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
        # every page reads one slab, every read has a row of its own, and
        # no page is empty
        read_at = paged[3]
        page = read_at // rows
        np.testing.assert_array_equal(page_slab[page], slabs)
        assert np.unique(read_at).size == read_at.size
        assert np.unique(page).size == page_slab.size
        # slab ids past 16 bits take the int64 sort and the same pages
        wide_slab, wide_read_at = page_table(slabs + 2**20, rows)
        np.testing.assert_array_equal(wide_slab, page_slab + 2**20)
        np.testing.assert_array_equal(wide_read_at, read_at)
        if shared and S:
            # chunk 0, read by all t queries, spans ceil(t / rows) pages
            first = page[..., 0]
            assert np.unique(first).size == -(-t // rows) * int(np.prod(lead))
        elif S:
            assert (np.bincount(page.ravel()) == 1).all()


def test_attend_with_pages_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(9)
    d = 8
    for lead, t, S, l, extra, shared, gain in (
        ((), 5, 0, 4, 3, True, 1.0),
        ((), 2 * PAGE_ROWS + 3, 4, 8, 7, True, 300.0),
        ((2,), 9, 3, 4, 0, False, 1.0),
        ((2, 3), 4, 2, 1, 2, True, 300.0),
    ):
        n = t + extra
        q = rng.normal(size=lead + (t, d)) * gain
        k, v = rng.normal(size=(2,) + lead + (n, d))
        mask = causal_mask(t, n, offset=extra)
        _, paged, identity, _, _ = slot_reads(rng, lead, t, S, l, d, shared, PAGE_ROWS, gain)
        for pages in (paged, identity):
            inputs = (q, k, v, mask) + tuple(x for x in pages if x is not None)
            before = [x.copy() for x in inputs]
            for x in inputs:
                x.flags.writeable = False  # a write in place raises
            out = attend(q, k, v, mask, pages)
            assert np.isfinite(out).all()
            for x, y in zip(inputs, before):
                np.testing.assert_array_equal(x, y)  # unread NaN rows compare equal


def test_mlp_scratch_is_one_block(tiny_model, monkeypatch):
    import tracemalloc

    import chunkattn.model as model_module

    block = 256
    monkeypatch.setattr(model_module, "DENSE_BLOCK_ROWS", block)
    d_model = tiny_model.config.d_model
    h = np.random.default_rng(0).normal(size=(4 * block, d_model))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = tiny_model.mlp(0, h)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # about 3 blocks' worth of (rows, 4 * d_model) silu temporaries live at
    # once; a whole 4-block pass holds 12
    scratch = block * 4 * d_model * h.itemsize
    assert peak - out.nbytes <= 4 * scratch
    monkeypatch.setattr(model_module, "DENSE_BLOCK_ROWS", len(h))
    np.testing.assert_array_equal(out, tiny_model.mlp(0, h))
