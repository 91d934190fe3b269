import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import ChunkStore


def make_store(l=4, d=4, layers=1, heads=1, **kw):
    return ChunkStore(layers, heads, d, l, **kw)


def fill_chunks(store, count, layer=0, d=4, seed=0):
    """Seal `count` chunks on every head of `layer`; head h's rows are drawn
    from seed + h."""
    l, H = store.chunk_size, store.n_heads
    rngs = [np.random.default_rng(seed + head) for head in range(H)]
    blocks = [np.stack([rng.normal(size=(count * l, d)) for rng in rngs]) for _ in range(4)]
    store.bulk_append(layer, *blocks)


def test_append_seals_on_chunk_boundary():
    store = make_store(l=4)
    rng = np.random.default_rng(0)
    for i in range(3):
        assert store.append_token(0, *rng.normal(size=(4, 1, 4))) is None
    assert store.recent_len(0) == 3
    assert store._recent_lens[0] == [3]
    assert store.append_token(0, *rng.normal(size=(4, 1, 4))) == 0
    assert store.recent_len(0) == 0
    # Q rows for the sealed chunk are gone
    assert store._recent_lens[0] == [0]
    assert store.sealed_count(0) == 1
    assert len(store.layer_reprs(0)[0]) == 1


# bulk.peak_hot_tokens of check_bulk_append_matches_streaming, as measured
# when bulk_append took one head per call: the layer-wide write installs
# heads in the same order, so it samples the same peaks
BULK_PEAKS = {
    (1, "hot"): 9, (1, "offload"): 0, (1, "budget"): 6,
    (4, "hot"): 45, (4, "offload"): 9, (4, "budget"): 33,
}


def test_bulk_append_matches_streaming():
    for l in (1, 4):
        for residency in ("hot", "offload", "budget"):
            check_bulk_append_matches_streaming(l, residency)


def check_bulk_append_matches_streaming(l, residency):
    # a layer-wide bulk append and layer-wide token appends build the same store
    H, d, chunks = 3, 4, 3
    n = chunks * l + l - 1
    rng = np.random.default_rng(1)
    Q, K, V, K_rot = (rng.normal(size=(H, n, d)) for _ in range(4))
    budget = 2 * l if residency == "budget" else None
    bulk = make_store(l=l, d=d, heads=H, residency=residency, budget=budget)
    assert bulk.bulk_append(0, Q, K, V, K_rot) == list(range(chunks))
    stream = make_store(l=l, d=d, heads=H, residency=residency, budget=budget)
    # one head per layer: each token goes to one head after another
    per_head = make_store(l=l, d=d, layers=H, residency=residency, budget=budget)
    for i in range(n):
        stream.append_token(0, Q[:, i], K[:, i], V[:, i], K_rot[:, i])
        for head in range(H):
            per_head.append_token(head, *(a[head : head + 1, i] for a in (Q, K, V, K_rot)))
    assert bulk.recent_len(0) == stream.recent_len(0) == l - 1
    np.testing.assert_array_equal(bulk.layer_reprs(0), stream.layer_reprs(0))
    for head in range(H):
        np.testing.assert_array_equal(per_head.layer_reprs(head)[0], stream.layer_reprs(0)[head])
        flags = bulk.residency_flags(0, head)
        assert flags == stream.residency_flags(0, head) == per_head.residency_flags(head, 0)
    assert bulk.sealed_count(0) == stream.sealed_count(0) == chunks
    np.testing.assert_array_equal(bulk._K[:chunks], stream._K[:chunks])
    np.testing.assert_array_equal(bulk._V[:chunks], stream._V[:chunks])
    np.testing.assert_array_equal(
        bulk._recent[0][:, :, : l - 1], stream._recent[0][:, :, : l - 1]
    )
    assert bulk.hot_tokens() == stream.hot_tokens() == per_head.hot_tokens()
    # a seal samples the peak as per-head appends do: head h's slab is
    # installed while its l rows count and the later heads hold l - 1
    assert stream.peak_hot_tokens == per_head.peak_hot_tokens
    # a bulk install never counts its chunk's rows as recent
    assert bulk.peak_hot_tokens <= stream.peak_hot_tokens
    assert bulk.peak_hot_tokens == BULK_PEAKS[l, residency]


def test_gather_row_counts_and_order():
    store = make_store(l=256, d=4)
    fill_chunks(store, 10, d=4)
    rng = np.random.default_rng(2)
    for _ in range(32):
        store.append_token(0, *rng.normal(size=(4, 1, 4)))
    K, V, K_recent, V_recent = store.gather(0, [[0, 6, 7, 9]])
    assert K.shape == V.shape == (1, 4, 256, 4)
    assert K_recent.shape == V_recent.shape == (1, 32, 4)
    assert store.tokens_gathered_total == 4 * 256 + 32
    # ascending order by original chunk, recent rows apart
    for j, cid in enumerate([0, 6, 7, 9]):
        np.testing.assert_array_equal(K[0, j], store._K[cid, 0, 0])
        np.testing.assert_array_equal(V[0, j], store._V[cid, 0, 0])
    np.testing.assert_array_equal(K_recent[0], store._recent[0][3, 0, :32])
    np.testing.assert_array_equal(V_recent[0], store._recent[0][2, 0, :32])


def test_gather_rejects_unknown_and_unordered():
    store = make_store()
    fill_chunks(store, 3)
    with pytest.raises(KeyError, match="unknown chunk"):
        store.gather(0, [[0, 7]])
    with pytest.raises(ValueError, match="ascending"):
        store.gather(0, [[2, 1]])
    with pytest.raises(ValueError, match="matrix"):
        store.gather(0, [0, 1])


def test_gather_rejects_ids_outside_the_sealed_chunks():
    store = make_store(l=4)
    fill_chunks(store, 2)
    with pytest.raises(KeyError, match="unknown chunk id 5"):
        store.gather(0, [[0, 5]])
    with pytest.raises(KeyError, match="unknown chunk id -1"):
        store.gather(0, [[-1, 0]])
    # the partial tail chunk is the recent region, never a selected chunk
    rng = np.random.default_rng(1)
    for _ in range(2):
        store.append_token(0, *rng.normal(size=(4, 1, 4)))
    assert (store.sealed_count(0), store.recent_len(0)) == (2, 2)
    with pytest.raises(KeyError, match="unknown chunk id 2"):
        store.gather(0, [[0, 2]])


def store_state(store):
    """Everything a gather may change on layer 0 of a two-head store."""
    flags = [store.residency_flags(0, head) for head in range(2)]
    lru = [list(store._lru[0][head]) for head in range(2)]
    return store.counters(), flags, lru, store._hot_level, store.hot_tokens()


def test_rejected_gather_leaves_the_store_unchanged():
    # head 0's ids are valid and cold; head 1 rejects its last id, after its
    # valid first one
    store = make_store(l=4, heads=2, residency="budget", budget=8)
    fill_chunks(store, 4)
    before = store_state(store)
    with pytest.raises(KeyError, match="unknown chunk id 9"):
        store.gather(0, [[0, 1], [1, 9]])
    assert store_state(store) == before
    with pytest.raises(KeyError, match="unknown chunk id -1"):
        store.gather(0, [[0, 1], [-1, 2]])
    with pytest.raises(ValueError, match="ascending"):
        store.gather(0, [[0, 1], [2, 2]])
    with pytest.raises(ValueError, match="integer"):
        store.gather(0, [[0.0, 1.0], [1.0, 2.0]])
    assert store_state(store) == before


def test_gather_reports_the_first_bad_id_in_row_order():
    # each matrix holds one unordered row and one unknown id; the error
    # names whichever comes first in row order
    store = make_store(l=4, heads=2, residency="budget", budget=8)
    fill_chunks(store, 4)
    before = store_state(store)
    with pytest.raises(ValueError, match="ascending"):
        store.gather(0, [[2, 1], [0, 9]])
    assert store_state(store) == before
    with pytest.raises(KeyError, match="unknown chunk id 9"):
        store.gather(0, [[0, 9], [2, 1]])
    assert store_state(store) == before


def test_gather_stacks_heads():
    store = make_store(l=4, heads=2, residency="budget", budget=12)
    fill_chunks(store, 3)
    K, V, K_recent, V_recent = store.gather(0, [[0, 2], [1, 2]])
    assert K.shape == V.shape == (2, 2, 4, 4)
    for head, ids in enumerate([[0, 2], [1, 2]]):
        np.testing.assert_array_equal(K[head], store._K[ids, 0, head])
        np.testing.assert_array_equal(V[head], store._V[ids, 0, head])
    # each head's gathered slabs move to the back of its LRU in id order
    assert [list(store._lru[0][head]) for head in range(2)] == [[1, 0, 2], [0, 1, 2]]
    # no chunk and no recent row: empty blocks, not an error
    K, V, K_recent, V_recent = store.gather(0, np.zeros((2, 0), dtype=np.int64))
    assert K.shape == V.shape == (2, 0, 4, 4)
    assert K_recent.shape == V_recent.shape == (2, 0, 4)


def test_all_hot_loads_nothing():
    store = make_store()
    fill_chunks(store, 6)
    store.gather(0, [[0, 2, 5]])
    assert store.tokens_loaded_total == 0
    assert store.tokens_gathered_total == 3 * 4


def test_offloaded_load_independent_of_total_length():
    loads = []
    for chunks in (4, 40, 400):
        store = make_store(l=4, residency="offload")
        fill_chunks(store, chunks)
        store.begin_step()
        store.gather(0, [[0, 1, chunks - 2, chunks - 1]])
        loads.append(store.tokens_loaded_this_step)
    assert loads == [16, 16, 16]


def test_offload_gather_leaves_hot_set_unchanged():
    store = make_store(residency="offload")
    fill_chunks(store, 5)
    assert store.residency_flags(0, 0) == ["offloaded"] * 5
    store.gather(0, [[1, 3]])
    assert store.residency_flags(0, 0) == ["offloaded"] * 5
    assert store.tokens_loaded_total == 8


def test_budget_below_working_set_rejected():
    with pytest.raises(ValueError, match="working set"):
        make_store(working_set_tokens=8, residency="budget", budget=7)
    assert make_store(working_set_tokens=8, residency="budget", budget=8).budget == 8


def test_budget_requires_value():
    with pytest.raises(ValueError, match="token budget"):
        make_store(residency="budget")
    with pytest.raises(ValueError, match="unknown residency"):
        make_store(residency="warm")


def test_budget_evicts_least_recently_gathered():
    # l=4, budget of 16 tokens = 4 slabs; hand-simulated 3-gather trace
    store = make_store(l=4, working_set_tokens=8, residency="budget", budget=16)
    fill_chunks(store, 6)
    # seals alone already overflowed twice: chunks 0 and 1 went cold first
    assert store.residency_flags(0, 0) == ["offloaded", "offloaded", "hot", "hot", "hot", "hot"]

    store.begin_step()
    store.gather(0, [[0, 5]])      # 0 fetched+promoted; oldest resident (2) evicted
    assert store.tokens_loaded_this_step == 4
    assert store.residency_flags(0, 0) == ["hot", "offloaded", "offloaded", "hot", "hot", "hot"]

    store.begin_step()
    store.gather(0, [[1, 3]])      # 1 fetched; 4 is now least recently gathered
    assert store.tokens_loaded_this_step == 4
    assert store.residency_flags(0, 0) == ["hot", "hot", "offloaded", "hot", "offloaded", "hot"]

    store.begin_step()
    store.gather(0, [[2, 4]])      # both cold; 0 then 5 evicted
    assert store.tokens_loaded_this_step == 8
    assert store.residency_flags(0, 0) == ["offloaded", "hot", "hot", "hot", "hot", "offloaded"]


def test_sealed_slabs_are_immutable_across_gathers():
    store = make_store()
    fill_chunks(store, 3)
    store.append_token(0, *np.random.default_rng(4).normal(size=(4, 1, 4)))

    def checksum():
        digest = hashlib.sha256()
        for rows in (store._K[:3], store._V[:3], store._recent[0]):
            digest.update(rows.tobytes())
        return digest.hexdigest()

    before = checksum()
    K, V, K_recent, V_recent = store.gather(0, [[0, 1, 2]])
    # mutating the gathered copies must not touch the slabs
    K += 99.0
    V += 99.0
    # the recent rows are views, and read-only
    for rows in (K_recent, V_recent):
        assert rows.shape == (1, 1, 4)
        with pytest.raises(ValueError):
            rows[0, 0, 0] = 99.0
    assert checksum() == before


def test_representation_exists_iff_sealed():
    store = make_store(l=4)
    rng = np.random.default_rng(3)
    for i in range(6):
        store.append_token(0, *rng.normal(size=(4, 1, 4)))
    assert store.sealed_count(0) == 1
    assert len(store.layer_reprs(0)[0]) == 1
    assert store.layer_reprs(0)[0].shape == (1, 4)


def test_peak_hot_tokens_tracks_recent_and_slabs():
    store = make_store(l=4, residency="offload")
    fill_chunks(store, 2)
    # slabs offloaded at seal; peak reflects the transient recent buffer
    assert store.peak_hot_tokens <= 4
    assert store.hot_tokens() == 0


# Every write covers all heads of a layer, so a layer's heads always hold
# equally many sealed and recent rows for `gather`; residency is set once,
# when the store is built.
_head_ids = st.lists(st.integers(0, 12), max_size=4, unique=True)
_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 1)),
        st.tuples(st.just("bulk"), st.integers(0, 1), st.integers(1, 10)),
        st.tuples(st.just("gather"), st.integers(0, 1), st.tuples(_head_ids, _head_ids)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_store_ops, mode=st.sampled_from(["hot", "offload", "budget"]), seed=st.integers(0, 99))
def test_hot_level_counter_matches_recount(ops, mode, seed):
    rng = np.random.default_rng(seed)
    store = make_store(l=4, layers=2, heads=2, residency=mode,
                       budget=12 if mode == "budget" else None, working_set_tokens=8)
    # slow reference: recount at every point where the store samples its peak
    reference = {"peak": 0}
    sample = store._note_hot_level

    def recount_then_sample():
        level = store.hot_tokens()
        assert store._hot_level == level
        reference["peak"] = max(reference["peak"], level)
        sample()

    store._note_hot_level = recount_then_sample
    for op in ops:
        kind = op[0]
        if kind == "append":
            store.append_token(op[1], *rng.normal(size=(4, 2, 4)))
        elif kind == "bulk":
            if store.recent_len(op[1]):
                continue
            store.bulk_append(op[1], *rng.normal(size=(4, 2, op[2], 4)))
        else:
            sealed = store.sealed_count(op[1])
            ids = [sorted(i for i in head_ids if i < sealed) for head_ids in op[2]]
            width = min(len(row) for row in ids)
            ids = [row[:width] for row in ids]
            # loads are counted from the residency just before the call
            offloaded = sum(store.residency_flags(op[1], head)[cid] == "offloaded"
                            for head, row in enumerate(ids) for cid in row)
            loaded = store.tokens_loaded_total
            store.gather(op[1], ids)
            assert store.tokens_loaded_total - loaded == store.chunk_size * offloaded
        assert store._hot_level == store.hot_tokens()
        assert store.peak_hot_tokens == reference["peak"]
