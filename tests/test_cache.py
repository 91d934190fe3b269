import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import ChunkStore


def make_store(l=4, d=4, layers=1, heads=1, **kw):
    return ChunkStore(layers, heads, d, l, **kw)


def fill_chunks(store, count, layer=0, head=0, d=4, seed=0):
    rng = np.random.default_rng(seed)
    l = store.chunk_size
    store.bulk_append(layer, head, *(rng.normal(size=(count * l, d)) for _ in range(3)))


def test_append_seals_on_chunk_boundary():
    store = make_store(l=4)
    rng = np.random.default_rng(0)
    for i in range(3):
        assert store.append_token(0, 0, *rng.normal(size=(3, 4))) is None
    assert store.recent_len(0, 0) == 3
    assert len(store._recent_q[0][0]) == 3
    assert store.append_token(0, 0, *rng.normal(size=(3, 4))) == 0
    assert store.recent_len(0, 0) == 0
    # Q rows for the sealed chunk are gone
    assert len(store._recent_q[0][0]) == 0
    assert store.sealed_count(0, 0) == 1
    assert len(store.repr_matrix(0, 0)) == 1


def test_bulk_append_matches_streaming():
    rng = np.random.default_rng(1)
    Q, K, V = (rng.normal(size=(11, 4)) for _ in range(3))
    bulk = make_store(l=4)
    sealed = bulk.bulk_append(0, 0, Q, K, V)
    assert sealed == [0, 1]
    stream = make_store(l=4)
    for i in range(11):
        stream.append_token(0, 0, Q[i], K[i], V[i])
    assert bulk.sealed_count(0, 0) == stream.sealed_count(0, 0)
    assert bulk.recent_len(0, 0) == stream.recent_len(0, 0) == 3
    for cid in range(2):
        np.testing.assert_array_equal(bulk._slabs[0][0][cid].k, stream._slabs[0][0][cid].k)
        np.testing.assert_allclose(
            bulk.repr_matrix(0, 0)[cid], stream.repr_matrix(0, 0)[cid]
        )
    for a, b in zip(bulk.recent_states(0, 0), stream.recent_states(0, 0)):
        np.testing.assert_array_equal(a, b)


def test_gather_row_counts_and_order():
    store = make_store(l=256, d=4)
    fill_chunks(store, 10, d=4)
    rng = np.random.default_rng(2)
    for _ in range(32):
        store.append_token(0, 0, *rng.normal(size=(3, 4)))
    K, V, row_ids = store.gather(0, 0, [0, 6, 7, 9], include_recent=True)
    assert K.shape[0] == V.shape[0] == 4 * 256 + 32
    # ascending order by original chunk, recent rows last
    assert list(np.unique(row_ids)) == [0, 6, 7, 9, 10]
    assert np.all(np.diff(row_ids) >= 0)


def test_gather_rejects_unknown_and_unordered():
    store = make_store()
    fill_chunks(store, 3)
    with pytest.raises(KeyError, match="unknown chunk"):
        store.gather(0, 0, [0, 7])
    with pytest.raises(ValueError, match="ascending"):
        store.gather(0, 0, [2, 1])


def test_all_hot_loads_nothing():
    store = make_store()
    fill_chunks(store, 6)
    store.gather(0, 0, [0, 2, 5])
    assert store.tokens_loaded_total == 0
    assert store.tokens_gathered_total == 3 * 4


def test_offloaded_load_independent_of_total_length():
    loads = []
    for chunks in (4, 40, 400):
        store = make_store(l=4, residency="offload")
        fill_chunks(store, chunks)
        store.begin_step()
        store.gather(0, 0, [0, 1, chunks - 2, chunks - 1])
        loads.append(store.tokens_loaded_this_step)
    assert loads == [16, 16, 16]


def test_offload_gather_leaves_hot_set_unchanged():
    store = make_store(residency="offload")
    fill_chunks(store, 5)
    assert store.residency_flags(0, 0) == ["offloaded"] * 5
    store.gather(0, 0, [1, 3])
    assert store.residency_flags(0, 0) == ["offloaded"] * 5
    assert store.tokens_loaded_total == 8


def test_budget_below_working_set_rejected():
    store = make_store(working_set_tokens=8)
    with pytest.raises(ValueError, match="working set"):
        store.set_residency("budget", 7)
    store.set_residency("budget", 8)


def test_budget_requires_value():
    store = make_store()
    with pytest.raises(ValueError, match="token budget"):
        store.set_residency("budget")
    with pytest.raises(ValueError, match="unknown residency"):
        store.set_residency("warm")


def test_budget_evicts_least_recently_gathered():
    # l=4, budget of 16 tokens = 4 slabs; hand-simulated 3-gather trace
    store = make_store(l=4, working_set_tokens=8)
    store.set_residency("budget", 16)
    fill_chunks(store, 6)
    # seals alone already overflowed twice: chunks 0 and 1 went cold first
    assert store.residency_flags(0, 0) == ["offloaded", "offloaded", "hot", "hot", "hot", "hot"]

    store.begin_step()
    store.gather(0, 0, [0, 5])     # 0 fetched+promoted; oldest resident (2) evicted
    assert store.tokens_loaded_this_step == 4
    assert store.residency_flags(0, 0) == ["hot", "offloaded", "offloaded", "hot", "hot", "hot"]

    store.begin_step()
    store.gather(0, 0, [1, 3])     # 1 fetched; 4 is now least recently gathered
    assert store.tokens_loaded_this_step == 4
    assert store.residency_flags(0, 0) == ["hot", "hot", "offloaded", "hot", "offloaded", "hot"]

    store.begin_step()
    store.gather(0, 0, [2, 4])     # both cold; 0 then 5 evicted
    assert store.tokens_loaded_this_step == 8
    assert store.residency_flags(0, 0) == ["offloaded", "hot", "hot", "hot", "hot", "offloaded"]


def test_sealed_slabs_are_immutable_across_gathers():
    store = make_store()
    fill_chunks(store, 3)

    def checksum():
        digest = hashlib.sha256()
        for slab in store._slabs[0][0]:
            digest.update(slab.k.tobytes())
            digest.update(slab.v.tobytes())
        return digest.hexdigest()

    before = checksum()
    K, V, _ = store.gather(0, 0, [0, 1, 2])
    K += 99.0  # mutating the gathered copy must not touch the slabs
    with pytest.raises(ValueError):
        store._slabs[0][0][0].k[0, 0] = 99.0
    assert checksum() == before


def test_representation_exists_iff_sealed():
    store = make_store(l=4)
    rng = np.random.default_rng(3)
    for i in range(6):
        store.append_token(0, 0, *rng.normal(size=(3, 4)))
    assert store.sealed_count(0, 0) == 1
    assert len(store.repr_matrix(0, 0)) == 1
    assert store.repr_matrix(0, 0).shape == (1, 4)


def test_peak_hot_tokens_tracks_recent_and_slabs():
    store = make_store(l=4, residency="offload")
    fill_chunks(store, 2)
    # slabs offloaded at seal; peak reflects the transient recent buffer
    assert store.peak_hot_tokens <= 4
    assert store.hot_tokens() == 0


def test_set_residency_hot_rematerializes_without_counting():
    store = make_store(residency="offload")
    fill_chunks(store, 4)
    store.set_residency("hot")
    assert store.residency_flags(0, 0) == ["hot"] * 4
    assert store.tokens_loaded_total == 0


def test_collect_weights_debug_records():
    store = make_store(l=4, collect_weights=True)
    fill_chunks(store, 2)
    assert len(store.weight_records) == 2
    for rec in store.weight_records:
        w = np.array(rec["weights"])
        assert w.shape == (4,)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)


_layer_head = (st.integers(0, 1), st.integers(0, 1))
_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), *_layer_head),
        st.tuples(st.just("bulk"), *_layer_head, st.integers(1, 10)),
        st.tuples(st.just("gather"), *_layer_head,
                  st.lists(st.integers(0, 12), max_size=4, unique=True), st.booleans()),
        st.tuples(st.just("residency"), st.sampled_from(["hot", "offload", "budget"]),
                  st.sampled_from([8, 12, 20])),
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
            store.append_token(op[1], op[2], *rng.normal(size=(3, 4)))
        elif kind == "bulk":
            if store.recent_len(op[1], op[2]):
                continue
            store.bulk_append(op[1], op[2], *rng.normal(size=(3, op[3], 4)))
        elif kind == "gather":
            sealed = store.sealed_count(op[1], op[2])
            ids = sorted(i for i in op[3] if i < sealed)
            store.gather(op[1], op[2], ids, include_recent=op[4])
        else:
            store.set_residency(op[1], op[2] if op[1] == "budget" else None)
        assert store._hot_level == store.hot_tokens()
        assert store.peak_hot_tokens == reference["peak"]
