import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import SELECTION_POLICIES, Engine, EngineConfig, ModelConfig, build_model, select
from chunkattn.selection import ARGSORT_MAX_LENGTH, ARGSORT_MAX_SCORES, rank_top

from conftest import random_tokens


def reprs_with_scores(query, scored):
    """Candidate matrix whose row dot products with `query` equal each score.

    `scored` lists (chunk_id, score) for consecutive chunk ids from 1, the
    candidates' order in a selection's scores.
    """
    assert [chunk_id for chunk_id, _ in scored] == list(range(1, len(scored) + 1))
    unit = query / np.dot(query, query)
    return np.array([score * unit for _, score in scored]).reshape(len(scored), query.size)


def select_one(query, candidates, last, k, policy="top-k", rng=None):
    """One head's chosen chunk ids and candidate scores: the candidates
    (chunks 1..last-1) scored against the query, then `select` with
    H = T = 1."""
    query = np.asarray(query, dtype=np.float64)
    scores = np.asarray(candidates, dtype=np.float64).reshape(-1, query.size) @ query
    rngs = None if rng is None else [[rng]]
    ids = select(scores[None, None], [last], k, policy, rngs)
    assert ids.shape[:2] == (1, 1)
    return tuple(ids[0, 0].tolist()), tuple(scores.tolist())


def test_topk_selects_highest_scored_plus_mandatory():
    q = np.array([1.0, 0.0])
    # eight candidates 1..8, chunks 6 and 7 score highest; last chunk is 9
    scored = [(i, float(i) if i in (6, 7) else -float(i)) for i in range(1, 9)]
    chunks, _ = select_one(q, reprs_with_scores(q, scored), last=9, k=4)
    assert chunks == (0, 6, 7, 9)


def test_selection_saturates_when_few_chunks():
    q = np.ones(3)
    cands = reprs_with_scores(np.ones(3) / 3, [(1, 0.5), (2, -0.5)])
    chunks, _ = select_one(q, cands, last=3, k=8)
    assert chunks == (0, 1, 2, 3)


def test_degenerate_single_chunk():
    chunks, scores = select_one(np.ones(4), [], last=0, k=4)
    assert chunks == (0,)
    assert scores == ()


def test_tie_breaks_toward_lower_chunk_index():
    q = np.array([1.0, 0.0])
    scored = [(1, 3.0), (2, 1.0), (3, 3.0)]
    chunks, _ = select_one(q, reprs_with_scores(q, scored), last=4, k=3)
    assert chunks == (0, 1, 4)


def test_last_k_policy():
    q = np.ones(2)
    scored = [(i, 100.0 - i) for i in range(1, 7)]  # earlier chunks score higher
    chunks, _ = select_one(q, reprs_with_scores(q, scored), last=7, k=4, policy="last-k")
    assert chunks == (0, 5, 6, 7)


def test_no_first_policy_drops_first_and_widens_budget():
    q = np.array([1.0, 0.0])
    scored = [(i, float(10 - i)) for i in range(1, 6)]
    chunks, _ = select_one(q, reprs_with_scores(q, scored), last=6, k=4, policy="no-first")
    assert 0 not in chunks
    assert chunks == (1, 2, 3, 6)


def test_random_policy_reproducible_and_mandatory():
    q = np.ones(2)
    scored = [(i, 0.0) for i in range(1, 9)]
    cands = reprs_with_scores(q, scored)
    a, _ = select_one(q, cands, 9, 4, policy="random", rng=np.random.default_rng(42))
    b, _ = select_one(q, cands, 9, 4, policy="random", rng=np.random.default_rng(42))
    assert a == b
    assert 0 in a and 9 in a
    with pytest.raises(ValueError, match="rng"):
        select_one(q, cands, 9, 4, policy="random")


def test_select_validations():
    scores = np.zeros((1, 2, 3))  # two rows of 3 candidates: last = 4
    with pytest.raises(ValueError, match="k="):
        select(scores, [4, 4], k=1)
    with pytest.raises(ValueError, match="unknown policy"):
        select(scores, [4, 4], k=2, policy="nope")
    with pytest.raises(ValueError, match=r"\(H, T, C\)"):
        select(scores[0], [4, 4], k=2)
    for last in ([4], [4, 4, 4], [[4, 4]], 4):
        with pytest.raises(ValueError, match=r"last must be a \(2,\)"):
            select(scores, last, k=2)
    for policy in ("top-k", "no-first", "fix-head"):
        with pytest.raises(ValueError, match="ranks up to 4 candidates, but scores hold 3"):
            select(scores, [4, 5], k=2, policy=policy)
    # last-k needs no scores at all
    assert select(scores[..., :0], [4, 5], k=2, policy="last-k").tolist() == [[[0, 4], [0, 5]]]
    # k = 4: last 2 keeps 0, 1 and 2, last 3 four chunks
    with pytest.raises(ValueError, match="rows of mixed width: last runs from 2 to 3"):
        select(scores, [3, 2], k=4)
    with pytest.raises(ValueError, match="mixed width"):
        select(scores, [-1, 0], k=4)
    with pytest.raises(ValueError, match=r"one rng per \(head, row\)"):
        select(scores, [4, 4], k=4, policy="random")


def test_scores_are_recorded_against_candidates():
    # column j of a row's scores is candidate chunk 1 + j
    q = np.array([2.0, 0.0])
    for scored, best in (((1.5, -0.5, 0.25), 1), ((-0.5, 0.25, 1.5), 3)):
        cands = reprs_with_scores(q, list(enumerate(scored, 1)))
        chunks, scores = select_one(q, cands, last=4, k=3)
        assert scores == pytest.approx(scored)
        assert chunks == (0, best, 4)


def test_apply_head_constraints():
    # three heads whose probes prefer different candidates
    queries = np.eye(3, 4)
    cands = np.stack([np.eye(8, 4)] * 3)  # chunk i + 1 scores 1 for head i only
    scores = np.matmul(cands, queries[:, :, None])[..., 0][:, None]
    kept = scores.copy()
    own = select(scores, [9], 3)[:, 0]
    assert own.tolist() == [[0, 1, 9], [0, 2, 9], [0, 3, 9]]
    for policy in ("fix-head", "fix-head-and-layer"):
        shared = select(scores, [9], 3, policy=policy)[:, 0]
        assert shared.tolist() == [[0, 1, 9]] * 3  # head 0's picks everywhere
        # each head keeps its own scores for diagnostics
        assert np.array_equal(scores, kept)
        assert [int(np.argmax(row)) for row in scores[:, 0]] == [0, 1, 2]
    # layer sharing needs layer 0's ids, which the caller holds: here
    # fix-layer ranks each head on its own, like top-k
    np.testing.assert_array_equal(select(scores, [9], 3, policy="fix-layer")[:, 0], own)
    with pytest.raises(ValueError, match="unknown policy"):
        select(scores, [9], 3, policy="bogus")
    with pytest.raises(ValueError, match="one rng per"):
        select(scores, [9], 3, policy="random")


@pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 65, 500])
def test_scores_are_each_heads_own_product_bit_for_bit(count, monkeypatch):
    # A decode step with `count` candidates (chunks 1..count, last count + 1)
    # passes `select` every head's scores; each must equal that head's own
    # product.
    import chunkattn.engine as engine_module

    model = build_model(ModelConfig.create(
        n_layers=2, n_heads=4, d_head=16, vocab_size=64, pretrain_length=512, seed=7))
    l, n = 4, (count + 2) * 4 + 1  # the step adds a row to a partial chunk: no seal
    engine = Engine(model, EngineConfig(chunk_size=l, num_selected=8))
    engine.encode(random_tokens(n))
    project, queries, passed = model.project_heads, [], []

    def keeping_queries(layer, x):
        Q, K, V = project(layer, x)
        queries.append(Q[:, 0])
        return Q, K, V

    def keeping_scores(scores, *args):
        passed.append(scores)
        return select(scores, *args)

    monkeypatch.setattr(model, "project_heads", keeping_queries)
    monkeypatch.setattr(engine_module, "select", keeping_scores)
    engine.generate(1)
    H = model.config.n_heads
    assert len(passed) == len(queries) == 2
    for layer, (scores, q) in enumerate(zip(passed, queries)):
        cands = engine.store.layer_reprs(layer)[:, 1 : count + 1]
        assert scores.shape == (H, 1, count)
        assert np.array_equal(scores[:, 0], [cands[h] @ q[h] for h in range(H)])


def test_selection_set_requires_ascending_chunks():
    rng = np.random.default_rng(0)
    queries = rng.normal(size=(4, 3))
    cands = rng.normal(size=(4, 10, 3))
    scores = np.matmul(cands, queries[:, :, None])[..., 0][:, None]
    rngs = [[np.random.default_rng(h)] for h in range(4)]
    for policy in ("top-k", "random", "last-k", "no-first", "fix-head"):
        ids = select(scores, [11], 5, policy, rngs)[:, 0]
        assert ids.shape == (4, 5)
        assert np.all(np.diff(ids, axis=1) > 0)


@settings(max_examples=200, deadline=None)
@given(
    n_cands=st.integers(0, 12),
    k=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(["top-k", "random", "last-k"]),
)
def test_mandatory_membership_budget_and_order(n_cands, k, seed, policy):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q = q if np.linalg.norm(q) > 1e-6 else np.ones(4)
    cands = rng.normal(size=(n_cands, 2, 4))[:, 0]  # chunk i's vector is row i - 1
    first, last = 0, n_cands + 1
    chunks, _ = select_one(q, cands, last, k, policy=policy, rng=np.random.default_rng(seed))
    assert first in chunks
    assert last in chunks
    assert len(chunks) <= k
    total_chunks = n_cands + 2
    assert len(chunks) == min(k, total_chunks)
    assert list(chunks) == sorted(set(chunks))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.001, 1000.0))
def test_topk_invariant_under_positive_query_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    cands = rng.normal(size=(8, 2, 4))[:, 0]  # chunk i's vector is row i - 1
    a, _ = select_one(q, cands, 9, 4)
    b, _ = select_one(q * scale, cands, 9, 4)
    assert a == b


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_raising_a_selected_chunks_score_never_evicts_it(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q = q if np.linalg.norm(q) > 1e-6 else np.ones(4)
    cands = rng.normal(size=(8, 2, 4))[:, 0]  # chunk i's vector is row i - 1
    chunks, _ = select_one(q, cands, 9, 4)
    picked = [c for c in chunks if c not in (0, 9)]
    if not picked:
        return
    target = picked[0]
    boosted = cands.copy()
    boosted[target - 1] += 5.0 * q / np.dot(q, q)
    chunks2, _ = select_one(q, boosted, 9, 4)
    assert target in chunks2


# Row lengths on both sides of ARGSORT_MAX_LENGTH, under (C,), (H, C),
# (H, t, C) and encode-group-sized (4, 128, C) batches, so blocks on both
# sides of ARGSORT_MAX_SCORES draw both the argsort and the threshold path.
_row_length = st.one_of(st.integers(0, 12), st.integers(0, 600))
_shapes = st.one_of(
    st.tuples(_row_length),
    st.tuples(st.integers(1, 4), _row_length),
    st.tuples(st.integers(1, 4), st.integers(1, 16), _row_length),
    st.tuples(st.just(4), st.just(128), st.integers(0, 160)),
)


def _expected_order(scores):
    """Each row's positions sorted by (-score, position), in Python."""
    return {
        batch: sorted(range(scores.shape[-1]), key=lambda i, row=scores[batch]: (-row[i], i))
        for batch in np.ndindex(scores.shape[:-1])
    }


def assert_top_set(got, scores, take):
    """`got` is each row's first `take` positions of the stable argsort of
    its negated scores, as a set: in ascending order."""
    top = np.argsort(-scores, axis=-1, kind="stable")[..., :take]
    np.testing.assert_array_equal(got, np.sort(top, axis=-1))
    assert (np.diff(got, axis=-1) > 0).all()


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shape=_shapes,
    spread=st.sampled_from([3, 50, 10**6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_top_ties_go_to_lower_position(data, shape, spread, seed):
    # integer scores: a small spread makes ties the common case, also at the
    # take-th best score; a wide one leaves most rows free of ties
    values = np.random.default_rng(seed).integers(-spread, spread + 1, size=shape)
    scores = values.astype(np.float64)
    length = shape[-1]
    if length <= 12:
        takes = range(length + 2)
    else:
        drawn = data.draw(st.lists(st.integers(0, length + 1), max_size=4))
        takes = sorted({0, 1, 6, length - 1, length, length + 1, *drawn})
    expected_order = _expected_order(scores)
    for take in takes:
        got = rank_top(scores, take)
        assert_top_set(got, scores, take)
        for batch in np.ndindex(shape[:-1]):
            assert list(got[batch]) == sorted(expected_order[batch][:take])


@settings(max_examples=150, deadline=None)
@given(
    shape=_shapes.filter(lambda shape: len(shape) > 1 and shape[-1] > 0),
    take=st.integers(0, 8),
    spread=st.sampled_from([3, 10**6]),
    nan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_top_limit_ranks_each_rows_own_prefix(shape, take, spread, nan, seed):
    # As an encode group ranks: row r keeps only its first limit[r] scores,
    # at least `take` of them, and must rank as if the rest were sliced off,
    # NaN scores included (they rank last, and before no cut-off position).
    rng = np.random.default_rng(seed)
    scores = rng.integers(-spread, spread + 1, size=shape).astype(np.float64)
    if nan:
        scores[rng.random(shape) < 0.3] = np.nan
        scores.reshape(-1, shape[-1])[0] = np.nan
    take = min(take, shape[-1])
    limit = rng.integers(take, shape[-1] + 1, size=shape[1:-1])  # broadcast over heads
    got = rank_top(scores, take, limit)
    assert got.shape == shape[:-1] + (take,)
    for batch in np.ndindex(shape[:-1]):
        assert_top_set(got[batch], scores[batch][: limit[batch[1:]]], take)


def test_rank_top_partition_path_handles_nan_and_inf():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(6, ARGSORT_MAX_LENGTH + ARGSORT_MAX_SCORES // 6 + 1))
    scores[0, 3] = np.nan  # outside the top picks
    scores[1, :8] = np.nan  # NaNs rank last under the argsort
    scores[2, 10] = np.inf
    scores[3, [4, 9]] = -np.inf
    scores[4, [2, 7, 30]] = scores[4].max() + 1.0  # a tie among the picks
    scores[5] = np.nan
    for take in (1, 6, 20):
        assert_top_set(rank_top(scores, take), scores, take)
    # Past a limit, scores above every kept one; with two NaNs before it,
    # row 0's kept scores and the cut-off ones add up to exactly `take`.
    limit = scores.shape[1] - 2
    scores[:, limit:] = 1e9
    scores[0, [5, 9]] = np.nan
    for take in (1, 6, 20):
        assert_top_set(rank_top(scores, take, limit), scores[:, :limit], take)


@settings(max_examples=200, deadline=None)
@given(
    heads=st.integers(1, 4),
    rows=st.integers(1, 5),
    k=st.integers(2, 6),
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(SELECTION_POLICIES),
    saturated=st.booleans(),
    fill=st.sampled_from([-np.inf, np.nan]),
)
def test_batched_select_matches_one_head_at_a_time(heads, rows, k, seed, policy, saturated, fill):
    # One call over heads and rows with different last but one width
    # returns what one call per row, and (heads sharing nothing) one call
    # per head and row, return.
    rng = np.random.default_rng(seed)
    if saturated:  # every row picks k - 2 (k - 1 under no-first) candidates
        last = rng.integers(k, k + 8, size=rows)
    else:  # one last, which may leave some of k unpicked
        last = np.full(rows, rng.integers(-1, k + 1))
    own = np.maximum(last - 1, 0)  # each row's candidate count
    scores = rng.normal(size=(heads, rows, own.max()))
    # NaN ranks last, after -inf: a row must still pick its own columns
    scores[rng.random(scores.shape) < 0.2] = np.nan
    for t in range(rows):
        scores[:, t, own[t]:] = fill  # past the row's own columns

    def rngs(hs, ts):
        return [[np.random.default_rng([seed, h, t]) for t in ts] for h in hs]

    ids = select(scores, last, k, policy, rngs(range(heads), range(rows)))
    assert ids.shape[:2] == (heads, rows)
    for t in range(rows):
        one_row = scores[:, t : t + 1, : own[t]]
        expected = select(one_row, last[t : t + 1], k, policy, rngs(range(heads), [t]))
        np.testing.assert_array_equal(ids[:, t : t + 1], expected)
        if policy in ("fix-head", "fix-head-and-layer"):
            continue  # every head takes head 0's picks
        for h in range(heads):
            one = select(one_row[h : h + 1], last[t : t + 1], k, policy, rngs([h], [t]))
            np.testing.assert_array_equal(ids[h : h + 1, t : t + 1], one)
