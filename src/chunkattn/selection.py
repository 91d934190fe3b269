"""Per-head chunk routing: rank candidate chunks against a query state.

The first chunk keeps the model stable and the most recent sealed chunk
carries local context, so both are always kept (except under the no-first
ablation). The remaining budget goes to the candidates with the highest
dot-product score against the query, or to the ablation variant's picks.

Every head of a layer is routed in one call: candidates arrive as one
(H, C, d) slice of the layer's representation matrices, one batched
matmul scores every head and one `rank_top` call ranks all the scores.
"""

from __future__ import annotations

import numpy as np

from .config import CONSTRAINT_POLICIES, SELECTION_POLICIES

# Rows of at most this many scores keep the full stable argsort; longer
# rows take an exact partition top-k. Below it the partition's fixed cost
# outweighs the sort it saves: on 16-row encode blocks it wins from about
# 62 scores, on 4-row decode rows only past about 256 (see CHANGES.md).
PARTITION_MIN_LENGTH = 64


def rank_top(scores: np.ndarray, take: int) -> np.ndarray:
    """Positions of the `take` best scores along the last axis, in rank
    order; ties go to the lower position. Leading axes are treated as batch
    dimensions."""
    count = scores.shape[-1]
    take = max(0, min(take, count))
    if count <= PARTITION_MIN_LENGTH or take == 0:
        return np.argsort(-scores, axis=-1, kind="stable")[..., :take]
    flat = scores.reshape(-1, count)
    rows = np.arange(flat.shape[0])[:, None]
    # the copy lets the (rows, count) partition indices go at once
    top = np.argpartition(flat, count - take, axis=-1)[:, count - take :].copy()
    top.sort(axis=-1)
    picked = flat[rows, top]
    top = top[rows, np.argsort(-picked, axis=-1, kind="stable")]
    # The picked set is the argsort's unless a score outside it ties the
    # worst pick (the argsort may prefer its lower position) or a NaN is
    # picked (no score then compares as tied); those rows take the argsort.
    inexact = (flat >= picked.min(axis=-1, keepdims=True)).sum(axis=-1) != take
    if inexact.any():
        top[inexact] = np.argsort(-flat[inexact], axis=-1, kind="stable")[:, :take]
    return top.reshape(scores.shape[:-1] + (take,))


def select(
    query: np.ndarray,
    candidates: np.ndarray,
    first: int,
    last: int,
    k: int,
    policy: str = "top-k",
    rngs=None,
) -> tuple:
    """Pick at most k chunks for each of H heads' queries.

    `query` is (H, d); `candidates` is an (H, C, d) stack of chunk
    representations whose row i is chunk first + 1 + i. It must exclude
    `first` and `last`, which are kept unconditionally (policy permitting).
    One batched matmul scores each head h against its own query[h]. The
    random policy draws head h's picks from `rngs[h]`. Under fix-head and
    fix-head-and-layer every head takes head 0's selection; sharing across
    layers is left to the caller, which holds layer 0's ids.

    Returns `(ids, scores)`: an (H, k') matrix of chunk ids, each row
    strictly ascending, and the (H, C) candidate scores.
    """
    if k < 2:
        raise ValueError(f"k={k} must be >= 2")
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 2 or query.size == 0:
        raise ValueError(f"query must be a nonempty (H, d) matrix, got shape {query.shape}")
    heads = query.shape[0]
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 3 or candidates.shape[0] != heads:
        raise ValueError(
            f"candidates must be an ({heads}, C, d) stack, got shape {candidates.shape}"
        )
    count = candidates.shape[1]
    scores = np.empty((heads, count))
    if count:
        if candidates.shape[2] == 0:
            raise ValueError("candidates hold an empty representation vector")
        if candidates.shape[2] != query.shape[1]:
            raise ValueError(
                f"representation dimension {candidates.shape[2:]} does not match "
                f"query {query.shape[1:]}"
            )
        if first + count >= last:
            raise ValueError(
                f"candidates must exclude the mandatory chunks, got ids "
                f"{first + 1}..{first + count} with last={last}"
            )
        scores = np.matmul(candidates, query[:, :, None])[..., 0]

    base = policy if policy not in CONSTRAINT_POLICIES else "top-k"
    if base == "no-first":
        mandatory = [last]
        take = k - 1
    else:
        mandatory = [first, last] if first != last else [first]
        take = k - 2
    take = min(take, count)

    if base in ("top-k", "no-first"):
        picked = first + 1 + rank_top(scores, take)
    elif base == "last-k":
        picked = np.arange(first + 1 + count - take, first + 1 + count)
    elif base == "random":
        if rngs is None:
            raise ValueError("random policy requires one rng per head")
        pool = np.arange(first + 1, first + 1 + count, dtype=np.int64)
        picked = np.empty((heads, take), dtype=np.int64)
        if take:
            for head in range(heads):
                picked[head] = rngs[head].choice(pool, size=take, replace=False)
    else:  # pragma: no cover - exhaustive above
        raise AssertionError(base)

    ids = np.empty((heads, take + len(mandatory)), dtype=np.int64)
    ids[:, :take] = picked
    ids[:, take:] = mandatory
    ids.sort(axis=1)
    if policy in ("fix-head", "fix-head-and-layer"):
        ids = np.broadcast_to(ids[0], ids.shape)
    return ids, scores
