
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import SelectionSet, apply_head_constraints, select
from chunkattn.selection import rank_top


def reprs_with_scores(query, scored):
    """Candidate matrix whose row dot products with `query` equal each score.

    `scored` lists (chunk_id, score) for consecutive chunk ids from 1, the
    rows a caller with first=0 passes.
    """
    assert [chunk_id for chunk_id, _ in scored] == list(range(1, len(scored) + 1))
    unit = query / np.dot(query, query)
    return np.array([score * unit for _, score in scored]).reshape(len(scored), query.size)


def test_topk_selects_highest_scored_plus_mandatory():
    q = np.array([1.0, 0.0])
    # eight candidates 1..8, chunks 6 and 7 score highest; last chunk is 9
    scored = [(i, float(i) if i in (6, 7) else -float(i)) for i in range(1, 9)]
    sel = select(q, reprs_with_scores(q, scored), first=0, last=9, k=4)
    assert sel.chunks == (0, 6, 7, 9)


def test_selection_saturates_when_few_chunks():
    q = np.ones(3)
    cands = reprs_with_scores(np.ones(3) / 3, [(1, 0.5), (2, -0.5)])
    sel = select(q, cands, first=0, last=3, k=8)
    assert sel.chunks == (0, 1, 2, 3)


def test_degenerate_single_chunk():
    sel = select(np.ones(4), [], first=0, last=0, k=4)
    assert sel.chunks == (0,)


def test_tie_breaks_toward_lower_chunk_index():
    q = np.array([1.0, 0.0])
    scored = [(1, 3.0), (2, 1.0), (3, 3.0)]
    sel = select(q, reprs_with_scores(q, scored), first=0, last=4, k=3)
    assert sel.chunks == (0, 1, 4)


def test_last_k_policy():
    q = np.ones(2)
    scored = [(i, 100.0 - i) for i in range(1, 7)]  # earlier chunks score higher
    sel = select(q, reprs_with_scores(q, scored), first=0, last=7, k=4, policy="last-k")
    assert sel.chunks == (0, 5, 6, 7)


def test_no_first_policy_drops_first_and_widens_budget():
    q = np.array([1.0, 0.0])
    scored = [(i, float(10 - i)) for i in range(1, 6)]
    sel = select(q, reprs_with_scores(q, scored), first=0, last=6, k=4, policy="no-first")
    assert 0 not in sel.chunks
    assert sel.chunks == (1, 2, 3, 6)


def test_random_policy_reproducible_and_mandatory():
    q = np.ones(2)
    scored = [(i, 0.0) for i in range(1, 9)]
    cands = reprs_with_scores(q, scored)
    a = select(q, cands, 0, 9, 4, policy="random", rng=np.random.default_rng(42))
    b = select(q, cands, 0, 9, 4, policy="random", rng=np.random.default_rng(42))
    assert a.chunks == b.chunks
    assert 0 in a.chunks and 9 in a.chunks
    with pytest.raises(ValueError, match="rng"):
        select(q, cands, 0, 9, 4, policy="random")


def test_select_validations():
    q = np.ones(2)
    with pytest.raises(ValueError, match="k="):
        select(q, [], 0, 1, k=1)
    with pytest.raises(ValueError, match="unknown policy"):
        select(q, [], 0, 1, k=2, policy="nope")
    bad_dim = np.ones((1, 3))
    with pytest.raises(ValueError, match="dimension"):
        select(q, bad_dim, 0, 2, k=3)
    empty_vec = np.zeros((1, 0))
    with pytest.raises(ValueError, match="empty representation"):
        select(q, empty_vec, 0, 2, k=3)
    overlapping = reprs_with_scores(q, [(1, 1.0), (2, 1.0)])  # row 2 is the last chunk
    with pytest.raises(ValueError, match="exclude the mandatory"):
        select(q, overlapping, 0, 2, k=3)


def test_scores_are_recorded_against_candidates():
    q = np.array([2.0, 0.0])
    scored = [(1, 1.5), (2, -0.5), (3, 0.25)]
    sel = select(q, reprs_with_scores(q, scored), first=0, last=4, k=3)
    assert sel.candidates == (1, 2, 3)
    assert sel.scores == pytest.approx((1.5, -0.5, 0.25))


def test_apply_head_constraints():
    base = SelectionSet(layer=1, head=2, query_token=5, chunks=(0, 3, 9))
    ref = SelectionSet(layer=1, head=0, query_token=5, chunks=(0, 4, 9))
    shared = apply_head_constraints(base, "fix-head", ref)
    assert shared.chunks == ref.chunks
    assert shared.head == 2  # identity of the constrained unit is kept
    assert apply_head_constraints(base, "top-k") is base
    with pytest.raises(ValueError, match="reference"):
        apply_head_constraints(base, "fix-layer")
    with pytest.raises(ValueError, match="unknown constraint"):
        apply_head_constraints(base, "bogus", ref)


def test_selection_set_requires_ascending_chunks():
    with pytest.raises(ValueError, match="ascending"):
        SelectionSet(layer=0, head=0, query_token=0, chunks=(3, 1))


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
    sel = select(q, cands, first, last, k, policy=policy, rng=np.random.default_rng(seed))
    assert first in sel.chunks
    assert last in sel.chunks
    assert len(sel.chunks) <= k
    total_chunks = n_cands + 2
    assert len(sel.chunks) == min(k, total_chunks)
    assert list(sel.chunks) == sorted(set(sel.chunks))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.001, 1000.0))
def test_topk_invariant_under_positive_query_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    cands = rng.normal(size=(8, 2, 4))[:, 0]  # chunk i's vector is row i - 1
    a = select(q, cands, 0, 9, 4)
    b = select(q * scale, cands, 0, 9, 4)
    assert a.chunks == b.chunks


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_raising_a_selected_chunks_score_never_evicts_it(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q = q if np.linalg.norm(q) > 1e-6 else np.ones(4)
    cands = rng.normal(size=(8, 2, 4))[:, 0]  # chunk i's vector is row i - 1
    sel = select(q, cands, 0, 9, 4)
    picked = [c for c in sel.chunks if c not in (0, 9)]
    if not picked:
        return
    target = picked[0]
    boosted = cands.copy()
    boosted[target - 1] += 5.0 * q / np.dot(q, q)
    sel2 = select(q, boosted, 0, 9, 4)
    assert target in sel2.chunks


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shape=st.one_of(
        st.tuples(st.integers(0, 12)),
        st.tuples(st.integers(1, 3), st.integers(0, 12)),
        st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(0, 12)),
    ),
)
def test_rank_top_ties_go_to_lower_position(data, shape):
    # small integer values make ties the common case
    values = data.draw(st.lists(st.integers(-3, 3), min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))))
    scores = np.array(values, dtype=np.float64).reshape(shape)
    for take in range(shape[-1] + 2):
        got = rank_top(scores, take)
        np.testing.assert_array_equal(got, np.argsort(-scores, axis=-1, kind="stable")[..., :take])
        for batch in np.ndindex(shape[:-1]):
            row = scores[batch]
            expected = sorted(range(len(row)), key=lambda i: (-row[i], i))[:take]
            assert list(got[batch]) == expected
