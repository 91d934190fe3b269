import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import chunk_query, chunk_representation
from chunkattn.representation import build_chunk_repr


def naive_attention(Q, K, V):
    """Independent reference: explicit loops, no shared code with the library."""
    rows, d = Q.shape
    out = np.zeros_like(V, dtype=float)
    for i in range(rows):
        logits = [sum(Q[i][x] * K[j][x] for x in range(d)) / math.sqrt(d) for j in range(len(K))]
        mx = max(logits)
        ws = [math.exp(v - mx) for v in logits]
        total = sum(ws)
        for j, w in enumerate(ws):
            out[i] += (w / total) * V[j]
    return out


def test_chunk_query_single_token():
    rng = np.random.default_rng(0)
    Q, K, V = (rng.normal(size=(1, 6)) for _ in range(3))
    np.testing.assert_allclose(chunk_query(Q, K, V), V[0], atol=1e-15)


def test_chunk_query_identical_keys_gives_value_mean():
    rng = np.random.default_rng(1)
    K = np.tile(rng.normal(size=(1, 4)), (5, 1))
    Q = rng.normal(size=(5, 4))
    V = rng.normal(size=(5, 4))
    np.testing.assert_allclose(chunk_query(Q, K, V), V.mean(axis=0), atol=1e-12)


def test_chunk_query_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for d in (4, 8):
        Q, K, V = (rng.normal(size=(4, d)) for _ in range(3))
        expected = naive_attention(Q, K, V).mean(axis=0)
        np.testing.assert_allclose(chunk_query(Q, K, V), expected, atol=1e-6)


def test_chunk_query_permutation_invariant():
    rng = np.random.default_rng(3)
    Q, K, V = (rng.normal(size=(6, 4)) for _ in range(3))
    perm = rng.permutation(6)
    base = chunk_query(Q, K, V)
    permuted = chunk_query(Q[perm], K[perm], V[perm])
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_chunk_query_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        chunk_query(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 4)))
    with pytest.raises(ValueError):
        chunk_query(np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((2, 4)))


def probe_weights(q, K):
    """softmax(K @ q / sqrt(d)), the weights chunk_representation averages
    the keys with, computed here without the library."""
    logits = (K @ q) / math.sqrt(K.shape[1])
    w = np.exp(logits - logits.max())
    return w / w.sum()


def test_chunk_representation_single_key():
    K = np.array([[1.0, 2.0, 3.0, 4.0]])
    np.testing.assert_allclose(chunk_representation(np.ones(4), K), K[0])


def test_chunk_representation_orthogonal_query_uniform():
    # identical keys orthogonal to the probe: weights uniform, c = the key
    K = np.tile(np.array([[1.0, 0.0, 0.0, 0.0]]), (4, 1))
    q = np.array([0.0, 1.0, 0.0, 0.0])
    c, w = chunk_representation(q, K), probe_weights(q, K)
    np.testing.assert_allclose(w, np.full(4, 0.25))
    np.testing.assert_allclose(w @ K, c, atol=1e-12)
    np.testing.assert_allclose(c, K.mean(axis=0))


def test_chunk_representation_dominant_key():
    # logit gap of 20 between one key and the rest
    d = 4
    q = np.array([1.0, 0.0, 0.0, 0.0])
    K = np.array(
        [
            [20.0, 0.3, -0.2, 0.5],
            [-20.0, 1.0, 0.0, 0.0],
            [-20.0, 0.0, 1.0, 0.0],
            [-20.0, 0.0, 0.0, 1.0],
        ]
    )
    logits = (K @ q) / math.sqrt(d)
    assert logits[0] - max(logits[1:]) == pytest.approx(20.0)
    c, w = chunk_representation(q, K), probe_weights(q, K)
    np.testing.assert_allclose(w @ K, c, atol=1e-12)
    assert w[0] > 0.999
    assert np.max(np.abs(c - K[0])) < 1e-3


def test_chunk_representation_convex_hull_weights():
    rng = np.random.default_rng(4)
    for _ in range(20):
        K = rng.normal(size=(6, 8))
        q = rng.normal(size=8)
        c, w = chunk_representation(q, K), probe_weights(q, K)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-6
        np.testing.assert_allclose(w @ K, c, atol=1e-12)


def test_chunk_representation_scale_monotonicity():
    rng = np.random.default_rng(5)
    K = rng.normal(size=(5, 8))
    q = rng.normal(size=8)
    # bump key 0's logit by an exact constant per step
    bump = q / (np.linalg.norm(q) ** 2) * math.sqrt(8)
    dists = []
    for g in (0.0, 5.0, 10.0):
        Kg = K.copy()
        Kg[0] = K[0] + g * bump
        c = chunk_representation(q, Kg)
        dists.append(np.linalg.norm(c - Kg[0]))
    assert dists[0] > dists[1] > dists[2]


def per_chunk(Q, K, V):
    return np.stack([chunk_representation(chunk_query(q, k, v), k) for q, k, v in zip(Q, K, V)])


def test_batched_variants_match_per_chunk():
    rng = np.random.default_rng(7)
    Q, K, V = (rng.normal(size=(3, 5, 4)) for _ in range(3))
    assert np.array_equal(build_chunk_repr(0, Q, K, V), per_chunk(Q, K, V))


@pytest.mark.parametrize("l", [1, 16, 64])
def test_build_chunk_repr_is_bit_equal_to_one_chunk_at_a_time(l):
    rng = np.random.default_rng(l)
    Q, K, V = (rng.normal(size=(40, l, 16)) for _ in range(3))
    batched = build_chunk_repr(0, Q, K, V)
    assert batched.shape == (40, 16)
    assert np.array_equal(batched, per_chunk(Q, K, V))
    # a batch of one, as sealed at decode time, gives the same rows
    for i in (0, 17, 39):
        one = build_chunk_repr(i, Q[i : i + 1], K[i : i + 1], V[i : i + 1])
        assert np.array_equal(one[0], batched[i])
    # a leading head axis, as the passkey harness passes, gives each head's rows
    heads = build_chunk_repr(0, *(np.stack([a, a[::-1]]) for a in (Q, K, V)))
    assert np.array_equal(heads[0], batched)
    assert np.array_equal(heads[1], batched[::-1])


def test_build_chunk_repr_names_the_non_finite_chunk():
    rng = np.random.default_rng(3)
    Q, K, V = (rng.normal(size=(6, 4, 8)) for _ in range(3))
    K[4, 2, 1] = np.inf
    # the batch starts at chunk 10, so its row 4 is chunk 14
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="chunk 14$"):
        build_chunk_repr(10, Q, K, V)
    # with a leading head axis, the chunk is named by its index within the head
    stacked = [np.stack([np.zeros_like(a), a]) for a in (Q, K, V)]
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="chunk 14$"):
        build_chunk_repr(10, *stacked)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 8),
    d=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 1000),
)
def test_representation_stays_in_convex_hull(rows, d, seed):
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(rows, d))
    q = rng.normal(size=d)
    c, w = chunk_representation(q, K), probe_weights(q, K)
    np.testing.assert_allclose(w @ K, c, atol=1e-12)
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.isfinite(c))
    # inside the bounding box of the rows, a necessary hull condition
    assert np.all(c <= K.max(axis=0) + 1e-12)
    assert np.all(c >= K.min(axis=0) - 1e-12)
